package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// This file is the §VII connection-scalability study: how much server
// receive-buffer memory one more client costs, per datapath mode, and
// what that implies at client counts far beyond what the testbed (or
// this simulator) can host as live endpoints. Dedicated RC resources
// are the scaling limit the paper names; a shared receive queue removes
// the per-client receive-buffer term of it.

// connScaleModes are the datapaths compared, in report order.
//
//	rc  — baseline: one RC QP per client, per-endpoint credit windows
//	srq — one shared receive pool per server worker (Options.UseSRQ)
var connScaleModes = []string{"rc", "srq"}

// connScaleFitCounts are the live client counts the footprint is
// actually measured at; the linear fit through them extrapolates to the
// counts no simulation could host.
var connScaleFitCounts = []int{8, 48}

// connScaleExtrapCounts are the projected client counts (the paper's
// "very large number of connections" regime).
var connScaleExtrapCounts = []int{100, 1_000, 10_000, 100_000}

// ConnScalePoint is the server receive-buffer footprint at one client
// count. Measured=false rows come from the fixed+slope fit, not a run.
type ConnScalePoint struct {
	Mode            string  `json:"mode"`
	Clients         int     `json:"clients"`
	ServerRecvBytes float64 `json:"server_recv_bytes"`
	PerClientBytes  float64 `json:"per_client_bytes"`
	Measured        bool    `json:"measured"`
}

// ConnScaleModel is the per-mode linear memory model fitted from the
// measured counts: ServerRecvBytes(n) ≈ Fixed + Slope·n.
type ConnScaleModel struct {
	Mode                string  `json:"mode"`
	FixedBytes          float64 `json:"fixed_bytes"`
	SlopeBytesPerClient float64 `json:"slope_bytes_per_client"`
}

// ConnScaleReport is the full sweep: memory models and points for every
// mode, plus aggregate small-get TPS at TPSClients live clients.
type ConnScaleReport struct {
	Models     []ConnScaleModel   `json:"models"`
	Points     []ConnScalePoint   `json:"points"`
	TPSClients int                `json:"tps_clients"`
	TPS        map[string]float64 `json:"tps"`
}

// connScaleDeploy maps a mode name onto deployment options.
func connScaleDeploy(mode string, o cluster.Options) cluster.Options {
	if mode == "srq" {
		o.UseSRQ = true
	}
	return o
}

// connScaleFootprint measures total server receive-buffer bytes after
// nClients connect and trade one op each (the SRQFootprint protocol,
// per mode).
func connScaleFootprint(p *cluster.Profile, mode string, nClients int, cfg RunConfig) (int64, error) {
	d := cluster.New(p, connScaleDeploy(mode, cfg.Deploy))
	defer d.Close()
	for i := 0; i < nClients; i++ {
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if err := c.MC.Set(fmt.Sprintf("warm-%d", i), []byte("x"), 0, 0); err != nil {
			return 0, err
		}
	}
	return d.Server.UCRRecvBufferBytes(), nil
}

// connScaleTPS measures aggregate closed-loop small-get TPS with
// nClients live clients, each running cfg.OpsPerPoint gets against the
// shared keyspace, driven round-robin (see roundRobin): the srq datapath
// funnels many clients through one receive pool per worker, which
// concurrent drivers would book in real-time order.
func connScaleTPS(p *cluster.Profile, mode string, nClients int, cfg RunConfig) (float64, error) {
	d := cluster.New(p, connScaleDeploy(mode, cfg.Deploy))
	defer d.Close()

	clients := make([]*cluster.Client, nClients)
	for i := range clients {
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[i] = c
	}
	w0 := NewWorkload(cfg.Seed, cfg.KeySpace, scalingValueSize)
	for _, k := range w0.Keys() {
		if err := clients[0].MC.Set(k, w0.Value(), 0, 0); err != nil {
			return 0, err
		}
	}
	makespan, err := roundRobin(clients, cfg, scalingValueSize, func(c *cluster.Client, w *Workload, _ int) error {
		_, _, _, err := c.MC.Get(w.Key())
		return err
	})
	if err != nil {
		return 0, err
	}
	totalOps := float64(nClients * cfg.OpsPerPoint)
	return totalOps / makespan.Seconds(), nil
}

// ConnScaleSweep runs the connection-scalability study on profile p:
// for every mode it measures the server footprint at the fit counts,
// fits the linear memory model, projects it across the extrapolation
// counts, and measures aggregate small-get TPS with tpsClients live
// closed-loop clients (tpsClients <= 0 defaults to 100, the 10² point
// the acceptance ratio is pinned at).
func ConnScaleSweep(p *cluster.Profile, tpsClients int, cfg RunConfig) (*ConnScaleReport, error) {
	cfg = cfg.withDefaults()
	if tpsClients <= 0 {
		tpsClients = 100
	}
	rep := &ConnScaleReport{
		TPSClients: tpsClients,
		TPS:        make(map[string]float64, len(connScaleModes)),
	}
	for _, mode := range connScaleModes {
		var bytesAt []float64
		for _, n := range connScaleFitCounts {
			b, err := connScaleFootprint(p, mode, n, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: connscale %s n=%d: %w", mode, n, err)
			}
			bytesAt = append(bytesAt, float64(b))
			rep.Points = append(rep.Points, ConnScalePoint{
				Mode: mode, Clients: n,
				ServerRecvBytes: float64(b),
				PerClientBytes:  float64(b) / float64(n),
				Measured:        true,
			})
		}
		n1, n2 := float64(connScaleFitCounts[0]), float64(connScaleFitCounts[1])
		slope := (bytesAt[1] - bytesAt[0]) / (n2 - n1)
		fixed := bytesAt[0] - slope*n1
		rep.Models = append(rep.Models, ConnScaleModel{
			Mode: mode, FixedBytes: fixed, SlopeBytesPerClient: slope,
		})
		for _, n := range connScaleExtrapCounts {
			total := fixed + slope*float64(n)
			rep.Points = append(rep.Points, ConnScalePoint{
				Mode: mode, Clients: n,
				ServerRecvBytes: total,
				PerClientBytes:  total / float64(n),
			})
		}
		tps, err := connScaleTPS(p, mode, tpsClients, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: connscale %s tps: %w", mode, err)
		}
		rep.TPS[mode] = tps
	}
	return rep, nil
}

// PerClientAt evaluates a mode's memory model at n clients.
func (r *ConnScaleReport) PerClientAt(mode string, n int) float64 {
	for _, m := range r.Models {
		if m.Mode == mode {
			return (m.FixedBytes + m.SlopeBytesPerClient*float64(n)) / float64(n)
		}
	}
	return 0
}

// ConnScaleTable renders the report: one footprint table (rows =
// client counts, columns = modes, cells = per-client bytes) and the
// TPS line.
func ConnScaleTable(r *ConnScaleReport) string {
	counts := map[int]bool{}
	cell := map[[2]interface{}]ConnScalePoint{}
	for _, pt := range r.Points {
		counts[pt.Clients] = true
		cell[[2]interface{}{pt.Mode, pt.Clients}] = pt
	}
	var ns []int
	for n := range counts {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	var sb strings.Builder
	sb.WriteString("# connection scalability: per-client server recv bytes (* = measured)\n")
	sb.WriteString("clients ")
	for _, m := range connScaleModes {
		fmt.Fprintf(&sb, " %12s", m)
	}
	sb.WriteString("\n")
	for _, n := range ns {
		fmt.Fprintf(&sb, "%-8d", n)
		for _, m := range connScaleModes {
			pt, ok := cell[[2]interface{}{m, n}]
			if !ok {
				fmt.Fprintf(&sb, " %12s", "-")
				continue
			}
			mark := " "
			if pt.Measured {
				mark = "*"
			}
			fmt.Fprintf(&sb, " %11.1f%s", pt.PerClientBytes, mark)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "# TPS at %d clients:", r.TPSClients)
	for _, m := range connScaleModes {
		fmt.Fprintf(&sb, "  %s=%.0f", m, r.TPS[m])
	}
	sb.WriteString("\n")
	return sb.String()
}
