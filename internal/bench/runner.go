package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// RunConfig tunes a measurement run.
type RunConfig struct {
	// OpsPerPoint is the measured operation count per (size, transport).
	OpsPerPoint int
	// KeySpace is the number of distinct keys.
	KeySpace int
	// Seed feeds workload generation.
	Seed uint64
	// Deploy overrides deployment options (worker count etc.).
	Deploy cluster.Options
}

func (c RunConfig) withDefaults() RunConfig {
	if c.OpsPerPoint <= 0 {
		c.OpsPerPoint = 50
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// LatencyPoint measures the mean latency of one (transport, size, mix)
// combination on a fresh single-client deployment — the paper's
// single-client experiment (§VI-B).
func LatencyPoint(p *cluster.Profile, t cluster.Transport, mix Mix, size int, cfg RunConfig) (*LatencyRecorder, error) {
	cfg = cfg.withDefaults()
	d := cluster.New(p, cfg.Deploy)
	defer d.Close()
	c, err := d.NewClient(t, mcclient.DefaultBehaviors())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	w := NewWorkload(cfg.Seed, cfg.KeySpace, size)
	rec := &LatencyRecorder{}
	if err := runClient(c, w, mix, cfg.OpsPerPoint, rec); err != nil {
		return nil, fmt.Errorf("bench: %s/%s size %d: %w", t, mix, size, err)
	}
	return rec, nil
}

// LatencySweep runs LatencyPoint over sizes for every transport,
// returning mean microseconds, indexed series[transport][sizeIdx].
func LatencySweep(p *cluster.Profile, transports []cluster.Transport, mix Mix, sizes []int, cfg RunConfig) (map[cluster.Transport][]float64, error) {
	out := make(map[cluster.Transport][]float64, len(transports))
	for _, t := range transports {
		vals := make([]float64, 0, len(sizes))
		for _, size := range sizes {
			rec, err := LatencyPoint(p, t, mix, size, cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, rec.Mean())
		}
		out[t] = vals
	}
	return out, nil
}

// JitterPoint runs many single-client gets on one transport and
// returns the latency distribution — the experiment behind the paper's
// §VI-B jitter investigation (they pushed samples to 10,000 trying to
// smooth SDP on QDR and could not).
func JitterPoint(p *cluster.Profile, t cluster.Transport, size, samples int, cfg RunConfig) (*LatencyRecorder, error) {
	cfg = cfg.withDefaults()
	cfg.OpsPerPoint = samples
	return LatencyPoint(p, t, MixGet, size, cfg)
}

// TPSPoint measures aggregate transactions per second with nClients
// closed-loop clients on distinct nodes doing 100% Gets of the given
// value size — the paper's multi-client experiment (§VI-D).
func TPSPoint(p *cluster.Profile, t cluster.Transport, nClients, size int, cfg RunConfig) (tps float64, err error) {
	cfg = cfg.withDefaults()
	d := cluster.New(p, cfg.Deploy)
	defer d.Close()

	clients := make([]*cluster.Client, nClients)
	for i := range clients {
		c, cerr := d.NewClient(t, mcclient.DefaultBehaviors())
		if cerr != nil {
			return 0, cerr
		}
		defer c.Close()
		clients[i] = c
	}
	// One client populates the shared keyspace.
	w0 := NewWorkload(cfg.Seed, cfg.KeySpace, size)
	for _, k := range w0.Keys() {
		if err := clients[0].MC.Set(k, w0.Value(), 0, 0); err != nil {
			return 0, err
		}
	}
	makespan, err := roundRobin(clients, cfg, size, func(c *cluster.Client, w *Workload, _ int) error {
		_, _, _, err := c.MC.Get(w.Key())
		return err
	})
	if err != nil {
		return 0, err
	}
	totalOps := float64(nClients * cfg.OpsPerPoint)
	return totalOps / makespan.Seconds(), nil
}

// roundRobin runs a closed-loop multi-client measurement: it aligns the
// clients' clocks at a common virtual start, then drives every client
// from this goroutine, one op per client per round, cfg.OpsPerPoint
// rounds, and returns the makespan. Client i draws keys from the shared
// keyspace starting at offset i; op issues the n-th blocking operation.
//
// Concurrent client goroutines would let the real-time interleaving
// pick the virtual-time service order: actors book shared resources
// (server worker clocks, lock stripes, receive pools) in physical call
// order, and Go's scheduler can run a client and its server worker as a
// ping-pong pair while the other clients wait, so one client finishes
// all its ops before the next starts and the run measures serialized
// clients. Round-robin fixes the event order — the number is the same
// on every run — while keeping the closed-loop semantics: each client's
// virtual clock still advances only by its own op latencies.
func roundRobin(clients []*cluster.Client, cfg RunConfig, size int,
	op func(c *cluster.Client, w *Workload, n int) error) (simnet.Duration, error) {
	var start simnet.Time
	for _, c := range clients {
		if c.Clock.Now() > start {
			start = c.Clock.Now()
		}
	}
	for _, c := range clients {
		c.Clock.AdvanceTo(start)
	}
	ws := make([]*Workload, len(clients))
	for i := range ws {
		ws[i] = NewWorkload(cfg.Seed, cfg.KeySpace, size)
		ws[i].nextKey = i
	}
	for n := 0; n < cfg.OpsPerPoint; n++ {
		for i, c := range clients {
			if err := op(c, ws[i], n); err != nil {
				return 0, fmt.Errorf("client %d op %d: %w", i, n, err)
			}
		}
	}
	var makespan simnet.Duration
	for _, c := range clients {
		if d := c.Clock.Now() - start; d > makespan {
			makespan = d
		}
	}
	return makespan, nil
}

// TPSSweep runs TPSPoint across client counts for every transport,
// returning thousands-of-TPS series, indexed series[transport][countIdx]
// (the unit the paper's Fig 6 y-axis uses).
func TPSSweep(p *cluster.Profile, transports []cluster.Transport, clientCounts []int, size int, cfg RunConfig) (map[cluster.Transport][]float64, error) {
	out := make(map[cluster.Transport][]float64, len(transports))
	for _, t := range transports {
		vals := make([]float64, 0, len(clientCounts))
		for _, n := range clientCounts {
			tps, err := TPSPoint(p, t, n, size, cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, tps/1e3)
		}
		out[t] = vals
	}
	return out, nil
}
