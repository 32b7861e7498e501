package memcheck

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Config selects what one memcheck run exercises.
type Config struct {
	// Transport is the wire the clients use (cluster.UCRIB, cluster.IPoIB, …).
	Transport cluster.Transport
	// Seed drives both workload generation and (with Faults) the drop
	// pattern. The same Config is bit-for-bit replayable.
	Seed uint64
	// Clients / Ops size the generated workload (defaults 3 / 400).
	Clients int
	Ops     int
	// Faults turns on a lossy fabric (1% drop) plus client retries.
	Faults bool
	// Pressure shrinks the cache so LRU eviction runs constantly.
	Pressure bool
	// NoBursts generates a purely blocking workload with the TTL mix
	// (see GenConfig.NoBursts).
	NoBursts bool
	// OneSided arms the one-sided GET path (UCR transport only): servers
	// publish the RDMA-readable directory and clients serve validated GET
	// hits without any server AM. Those hits leave no server record, so
	// the cross-check validates them by item-version containment.
	OneSided bool
	// SRQ serves the deployment from shared receive queues (UCR
	// transport only): one buffer pool per server worker instead of
	// per-endpoint credit rings, with arrivals demultiplexed back to
	// endpoints by QPN. Result.SRQDemux counts those demux decisions —
	// a run that never demuxed validated nothing.
	SRQ bool
	// WriteReplies arms the write-based reply path (UCR transport
	// only): clients advertise registered reply windows with each GET/
	// MGET and servers answer crossover-sized hits by RDMA-writing the
	// reply into the window, completing the op with a payload-free
	// notify. The crossover is forced down to 64 bytes so the
	// generator's ordinary values exercise the path; replies below it
	// (and oversize-vs-window ones) still take the fallback ladder.
	// Result.WriteReplies counts the server's posted writes — a sweep
	// that never wrote validated nothing.
	WriteReplies bool
}

// Observation is one client-side outcome, tagged with which client saw it.
type Observation struct {
	Client int
	Op     mcclient.ObservedOp
}

// runOutcome is everything one execution produced: the server's
// transition history (sorted by Seq — the linearization order), the
// clients' observations, and the datapath counters the vacuity guards
// check.
type runOutcome struct {
	Records       []*memcached.OpRecord
	Obs           []Observation
	SRQDemux      uint64
	BatchedDrains uint64
	WriteReplies  uint64
}

// execute runs a script against a fresh deployment and collects the
// history. A returned error is a harness-level failure (an operation
// failed in a way the configuration cannot explain), reported as a
// violation by the caller.
func execute(sc Script, cfg Config) (*runOutcome, error) {
	opts := cluster.Options{
		Servers:       1,
		ServerWorkers: 2,
		Stripes:       4,
		MemoryLimit:   64 << 20,
	}
	if cfg.Pressure {
		// Two slab pages: one ends up with the small classes, one with
		// the generator's 33–63 KB pressure values (≈16 chunks), so LRU
		// eviction starts within a couple dozen stores.
		opts.MemoryLimit = 2 << 20
	}
	if cfg.Faults {
		opts.Faults = cluster.LossyFaults(1.0, cfg.Seed^0x5eed)
	}
	if cfg.OneSided {
		opts.OneSidedGet = true
	}
	if cfg.SRQ {
		opts.UseSRQ = true
	}
	if cfg.WriteReplies {
		opts.WriteReplies = true
		opts.WriteReplyEager = 64
	}
	d := cluster.New(cluster.ClusterB(), opts)
	defer d.Close()

	b := mcclient.DefaultBehaviors()
	if cfg.Faults {
		b.Retries = 3
		b.RetryBackoff = 200 * simnet.Microsecond
		if cfg.Transport == cluster.UCRIB {
			// UCR is unreliable datagram-style at the AM layer: lost
			// packets need a client-side timeout to trigger the retry.
			// Socket transports model reliable streams and retransmit
			// below the client. Clean runs leave the timeout unset: a
			// lossless fabric drops nothing, and worker clocks running
			// ahead of a client's would turn the virtual deadline into
			// spurious failures.
			b.OpTimeout = 4 * simnet.Millisecond
		}
	}

	x := &executor{cfg: cfg, store: d.Server.Store(), deployment: d}
	for i := 0; i < sc.Clients; i++ {
		cl, err := d.NewClient(cfg.Transport, b)
		if err != nil {
			return nil, fmt.Errorf("memcheck: client %d: %w", i, err)
		}
		defer cl.Close()
		idx := i
		cl.MC.SetObserver(func(o mcclient.ObservedOp) {
			x.obs = append(x.obs, Observation{Client: idx, Op: o})
		})
		x.clients = append(x.clients, cl)
	}

	// Arm the recorder only now: connection setup is not part of the
	// checked history. The callback runs on server worker goroutines, so
	// the sink is mutex-guarded; Seq restores the total order afterwards.
	x.store.SetRecorder(func(r *memcached.OpRecord) {
		x.recMu.Lock()
		x.records = append(x.records, r)
		x.recMu.Unlock()
	})

	for i, op := range sc.Ops {
		if err := x.step(op); err != nil {
			return nil, fmt.Errorf("memcheck: op %d (%s): %w", i, formatOp(op, true), err)
		}
	}
	x.epilogue(sc)

	// Close before reading the history: lossy retries can leave
	// duplicated requests still draining through the server; Close joins
	// the workers, so afterwards the history is complete.
	for _, cl := range x.clients {
		cl.Close()
	}
	x.clients = nil
	d.Close()
	x.store.SetRecorder(nil)

	recs := x.records
	sortRecords(recs)
	return &runOutcome{
		Records: recs, Obs: x.obs,
		SRQDemux:      d.Server.UCRSRQDemux(),
		BatchedDrains: d.Server.UCRBatchedDrains(),
		WriteReplies:  d.Server.UCRWriteReplies(),
	}, nil
}

type executor struct {
	cfg        Config
	deployment *cluster.Deployment
	store      *memcached.Store
	clients    []*cluster.Client

	recMu   sync.Mutex
	records []*memcached.OpRecord
	obs     []Observation
}

func sortRecords(recs []*memcached.OpRecord) {
	// Seq is a dense total order; plain comparison sort keeps this O(n log n).
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
}

// tolerable reports whether err is an outcome the configuration can
// produce on a healthy run.
func (x *executor) tolerable(err error) bool {
	if err == nil {
		return true
	}
	switch {
	case errors.Is(err, mcclient.ErrCacheMiss),
		errors.Is(err, mcclient.ErrNotStored),
		errors.Is(err, mcclient.ErrCASExists),
		errors.Is(err, mcclient.ErrBadValue),
		errors.Is(err, mcclient.ErrServerError):
		return true
	case errors.Is(err, mcclient.ErrServerDown):
		// Only a lossy fabric may lose operations.
		return x.cfg.Faults
	default:
		return false
	}
}

func (x *executor) step(op ScriptOp) error {
	cl := x.clients[op.Client%len(x.clients)]
	mc := cl.MC
	var err error
	switch op.Code {
	case OpSet:
		err = mc.Set(op.Key, op.Value, op.Flags, op.Exptime)
	case OpAdd:
		err = mc.Add(op.Key, op.Value, op.Flags, op.Exptime)
	case OpReplace:
		err = mc.Replace(op.Key, op.Value, op.Flags, op.Exptime)
	case OpAppend:
		err = mc.Append(op.Key, op.Value)
	case OpPrepend:
		err = mc.Prepend(op.Key, op.Value)
	case OpCas:
		err = x.stepCas(mc, op)
	case OpGet:
		_, _, _, err = mc.Get(op.Key)
	case OpMGet:
		_, err = mc.GetMulti(op.Keys)
	case OpDelete:
		err = mc.Delete(op.Key)
	case OpIncr:
		_, err = mc.Incr(op.Key, op.Delta)
	case OpDecr:
		_, err = mc.Decr(op.Key, op.Delta)
	case OpAdvance:
		cl.Clock.Advance(op.Advance)
		return nil
	case OpFlush:
		x.stepFlush()
		return nil
	case OpBurst:
		return x.stepBurst(cl, op)
	default:
		return fmt.Errorf("unknown op code %d", op.Code)
	}
	if !x.tolerable(err) {
		return err
	}
	return nil
}

// stepCas learns the key's current CAS id with a real get, then issues
// the cas — with the fresh id, or a deliberately wrong one.
func (x *executor) stepCas(mc *mcclient.Client, op ScriptOp) error {
	_, _, cas, err := mc.Get(op.Key)
	if err != nil && !x.tolerable(err) {
		return err
	}
	id := cas
	if errors.Is(err, mcclient.ErrCacheMiss) || id == 0 {
		id = 99991 // any id: cas on an absent key is NOT_FOUND regardless
	} else if op.Stale {
		id += 7777
	}
	err = mc.Cas(op.Key, op.Value, op.Flags, op.Exptime, id)
	if !x.tolerable(err) {
		return err
	}
	return nil
}

// stepFlush calls flush_all with a horizon strictly above every clock
// in the system, then moves every client past it. This keeps the flush
// outcome deterministic even when pipelined bursts have left the worker
// clocks at scheduler-dependent values: everything stored so far is
// below the horizon, everything after is above it — whatever the exact
// timestamps were.
func (x *executor) stepFlush() {
	maxT := simnet.Time(0)
	for _, cl := range x.clients {
		if t := cl.Clock.Now(); t > maxT {
			maxT = t
		}
	}
	for _, wc := range x.deployment.Server.WorkerClocks() {
		if wc > maxT {
			maxT = wc
		}
	}
	x.store.FlushAll(maxT)
	for _, cl := range x.clients {
		cl.Clock.AdvanceTo(maxT + simnet.Second)
	}
}

// stepBurst drives one pipelined window through the client's transport
// and synthesizes the observations from the settled futures (the
// blocking-path observer does not see pipelined ops).
func (x *executor) stepBurst(cl *cluster.Client, op ScriptOp) error {
	pr, ok := cl.MC.Transport(0).(mcclient.Pipeliner)
	if !ok {
		return fmt.Errorf("transport %s cannot pipeline", x.cfg.Transport)
	}
	w := op.Window
	if w < 1 {
		w = 1
	}
	pl := pr.Pipeline(w)
	clk := cl.Clock

	type pending struct {
		sub ScriptOp
		get *mcclient.GetFuture
		set *mcclient.SetFuture
		del *mcclient.BoolFuture
	}
	pend := make([]pending, 0, len(op.Sub))
	for _, sub := range op.Sub {
		p := pending{sub: sub}
		switch sub.Code {
		case OpSet:
			p.set = pl.StartSet(clk, sub.Key, sub.Flags, 0, sub.Value)
		case OpGet:
			p.get = pl.StartGet(clk, sub.Key)
		case OpDelete:
			p.del = pl.StartDelete(clk, sub.Key)
		default:
			return fmt.Errorf("burst sub-op %s not supported", opNames[sub.Code])
		}
		pend = append(pend, p)
	}
	if err := pl.Wait(clk); err != nil && !x.tolerable(err) {
		return err
	}
	for _, p := range pend {
		switch {
		case p.set != nil:
			res, err := p.set.Wait(clk)
			if !x.tolerable(err) {
				return err
			}
			x.obs = append(x.obs, Observation{Client: clientIndex(x, cl), Op: mcclient.ObservedOp{
				Kind: memcached.RecSet, Key: p.sub.Key, Value: p.sub.Value,
				Flags: p.sub.Flags, Res: res, Err: err,
			}})
		case p.get != nil:
			v, flags, cas, hit, err := p.get.Wait(clk)
			if !x.tolerable(err) {
				return err
			}
			x.obs = append(x.obs, Observation{Client: clientIndex(x, cl), Op: mcclient.ObservedOp{
				Kind: memcached.RecGet, Key: p.sub.Key, Value: append([]byte(nil), v...),
				Flags: flags, CAS: cas, Hit: hit, Err: err,
			}})
		case p.del != nil:
			hit, err := p.del.Wait(clk)
			if !x.tolerable(err) {
				return err
			}
			x.obs = append(x.obs, Observation{Client: clientIndex(x, cl), Op: mcclient.ObservedOp{
				Kind: memcached.RecDelete, Key: p.sub.Key, Hit: hit, Err: err,
			}})
		}
	}
	return nil
}

func clientIndex(x *executor, cl *cluster.Client) int {
	for i, c := range x.clients {
		if c == cl {
			return i
		}
	}
	return 0
}

// epilogue reads back every key the script could have touched, from one
// client, blocking — pinning down the final state of the store so
// latent divergence (e.g. a delete that did not delete) always shows up
// in the history.
func (x *executor) epilogue(sc Script) {
	keys := scriptKeys(sc)
	mc := x.clients[0].MC
	for _, k := range keys {
		_, _, _, _ = mc.Get(k)
	}
	if len(keys) > 0 {
		_, _ = mc.GetMulti(keys)
	}
}

// scriptKeys is the sorted union of keys a script touches.
func scriptKeys(sc Script) []string {
	set := make(map[string]struct{})
	var walk func(ops []ScriptOp)
	walk = func(ops []ScriptOp) {
		for _, op := range ops {
			if op.Key != "" {
				set[op.Key] = struct{}{}
			}
			for _, k := range op.Keys {
				set[k] = struct{}{}
			}
			walk(op.Sub)
		}
	}
	walk(sc.Ops)
	return sortKeys(set)
}
