package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// simWorkload is a closed loop of two clients on a simulated cluster-B
// deployment with default options. Both clients are driven round-robin
// from one goroutine at GOMAXPROCS 1, with their virtual clocks aligned
// after populate, so the virtual-time results depend on the seed alone.
type simWorkload struct {
	name      string
	transport cluster.Transport
	servers   int
	memory    int64 // per server; 0 keeps the cluster default
	dist      mcclient.Distribution
	nKeys     int
	minSize   int
	maxSize   int
	zipfS     float64
	setFrac   float64
	// depth > 0 keeps that many requests in flight per client through a
	// Pipeline (get/set mix); depth 0 runs the blocking look-aside loop:
	// get, set on a miss, plus setFrac explicit sets.
	depth int
	// steps is each client's loop iterations per trial. It is fixed, not
	// scaled to -seconds, because the simulator's wall cost per op grows
	// with run length (README.md, "Known effects").
	steps int
}

const simClients = 2

// phaseMemoryLimit caps the heap while collection is off in a measured
// phase; past it the runtime collects anyway. A phase's garbage stays
// well below it.
const phaseMemoryLimit = 1 << 30

var ucrPipelinedGet = &simWorkload{
	name: "ucr-pipelined-get", transport: cluster.UCRIB, servers: 1,
	dist: mcclient.DistModula, nKeys: 16 << 10, minSize: 32, maxSize: 512, zipfS: 0.99,
	setFrac: 0.05, depth: 8, steps: 2500,
}

var ipoibLookaside = &simWorkload{
	name: "ipoib-lookaside", transport: cluster.IPoIB, servers: 2, memory: 32 << 20,
	dist: mcclient.DistKetama, nKeys: 12 << 10, minSize: 1 << 10, maxSize: 32 << 10, zipfS: 0.9,
	setFrac: 0.10, steps: 1500,
}

func (w *simWorkload) keyspace(seed uint64) *keyspace {
	return newKeyspace(seed, w.nKeys, w.minSize, w.maxSize, w.zipfS)
}

// virt is a trial's virtual-time result. Trials of one seed must agree
// on it exactly.
type virt struct {
	kops, p50us, p90us, p99us float64
	samples                   int
	hitRatio                  float64
	ops, fails                int64
}

// simTrial is one deployment's measured phase.
type simTrial struct {
	virt
	wrong     int64
	wallS     float64
	deployS   float64
	populateS float64
	heapMB    float64
	// layer holds the per-layer counters of the measured phase.
	layer map[string]float64
	// populate and stream are the op stream for the replays (traced
	// trials only).
	populate []int
	stream   []op
}

func (t *simTrial) setupS() float64 { return t.deployS + t.populateS }

// minTrials is the least number of trials in a pass, so set-up time and
// wall-clock speed are medians even on a slow host.
const minTrials = 3

func (w *simWorkload) measure(seed uint64, seconds float64) (*outcome, error) {
	trials, err := w.trials(seed, seconds, nil, minTrials)
	if trials == nil {
		return nil, err
	}
	v, agree := modeVirt(trials)
	o := &outcome{}
	var setup, heap []float64
	// wall_kops is the fastest trial's: a slower trial is the same work
	// slowed by the host. Over ten runs of ucr-pipelined-get the fastest
	// trial's spread between runs was 0.11, the median trial's 0.18.
	var wallKops float64
	var wallS float64
	for _, t := range trials {
		setup = append(setup, t.setupS())
		wallKops = max(wallKops, float64(t.ops)/t.wallS/1e3)
		heap = append(heap, t.heapMB)
		o.attempted += t.ops
		o.failed += t.fails
		o.wrong += t.wrong
		wallS += t.wallS
	}
	o.wallPerOp = wallS / float64(o.attempted)
	fmt.Printf("# %s seed %d: %d trials of %d ops, %d latency samples each, %d of them reproducing the virtual-time result\n",
		w.name, seed, len(trials), v.ops, v.samples, agree)
	failRatio := float64(v.fails) / float64(v.ops)
	o.values = map[string]float64{
		"kops":      v.kops,
		"p50_us":    v.p50us,
		"p90_us":    v.p90us,
		"wall_kops": wallKops,
		"mem_mb":    median(heap),
		"hit_ratio": v.hitRatio,
		"ok_ratio":  1 - failRatio,
		"setup_s":   median(setup),
	}
	printNamed([]named{
		{"virt_kops", v.kops, "kops"},
		{"virt_p50_us", v.p50us, "us"},
		{"virt_p90_us", v.p90us, "us"},
		{"virt_p99_us", v.p99us, "us"},
		{"sim_wall_kops", o.values["wall_kops"], "kops"},
		{"sim_heap_mb", o.values["mem_mb"], "MB"},
		{"hit_ratio", v.hitRatio, "ratio"},
		{"fail_ratio", failRatio, "ratio"},
		{"setup_s", o.values["setup_s"], "s"},
	})
	return o, err
}

func (w *simWorkload) traced(seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	trials, err := w.trials(seed, seconds, tr, minTrials)
	if trials == nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}}
	var deploy, populate []float64
	for _, t := range trials {
		deploy = append(deploy, t.deployS)
		populate = append(populate, t.populateS)
		o.attempted += t.ops
		o.failed += t.fails
		o.wrong += t.wrong
	}
	o.wallPerOp = tr.passWall / float64(tr.passOps)
	last := trials[len(trials)-1]
	for name, v := range last.layer {
		o.values[name] = v
	}
	cpuShares(o.values, &tr.samples)
	o.values["cluster.deploy_s"] = median(deploy)
	o.values["cluster.populate_s"] = median(populate)
	o.values["mcclient.issue_wall_ns"] = tr.meanNs(spIssue)
	o.values["mcclient.wait_wall_ns"] = tr.meanNs(spWait)
	o.values["ring.lookup_ns"] = tr.meanNs(spRing)
	if calls := tr.acc[spClientGet].n + tr.acc[spClientSet].n; calls > 0 {
		self := tr.acc[spClientGet].ns + tr.acc[spClientSet].ns - tr.acc[spTransport].ns
		o.values["mcclient.self_wall_ns"] = float64(self) / float64(calls)
	}
	ks := w.keyspace(seed)
	mem := w.memory * int64(w.servers)
	if w.memory == 0 {
		mem = defaultServerMemory
	}
	rp, rerr := replay(ks, last.populate, last.stream, mem)
	if rerr != nil {
		return nil, rerr
	}
	o.values["memcached.store_ns_per_op"] = rp.storeNs
	o.values["memcached.proto_ns_per_cmd"] = rp.protoNs
	return o, err
}

// defaultServerMemory is cluster.Options' default MemoryLimit.
const defaultServerMemory = 512 << 20

// trials runs same-seed trials until seconds have passed, and at least
// atLeast of them. With wrong values it returns the trials and
// errWrongValue.
func (w *simWorkload) trials(seed uint64, seconds float64, tr *tracer, atLeast int) ([]*simTrial, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ks := w.keyspace(seed)
	var trials []*simTrial
	start := time.Now()
	for len(trials) < atLeast || since(start) < seconds {
		t, err := w.trial(ks, seed, tr)
		if err != nil {
			return nil, err
		}
		if err := w.checkVacuity(t); err != nil {
			return nil, err
		}
		trials = append(trials, t)
	}
	for _, t := range trials {
		if t.wrong > 0 {
			return trials, errWrongValue
		}
	}
	return trials, nil
}

// modeVirt is the virtual-time result most trials agree on (the
// earliest on a tie), and how many agree. Same-seed trials differ only
// when a wall-clock event in the simulator reorders its goroutines (see
// README.md, "Determinism"); the result they share is the one the seed
// determines.
func modeVirt(trials []*simTrial) (virt, int) {
	count := map[virt]int{}
	best := trials[0].virt
	for _, t := range trials {
		count[t.virt]++
		if count[t.virt] > count[best] {
			best = t.virt
		}
	}
	return best, count[best]
}

// checkVacuity fails a trial that did not exercise what the workload is
// for: evictions on the look-aside loop, UCR traffic on the UCR
// workload and none on the sockets one.
func (w *simWorkload) checkVacuity(t *simTrial) error {
	c := t.layer
	switch {
	case w.depth == 0 && c["evictions"] == 0:
		return fmt.Errorf("vacuous run: no evictions in the look-aside loop")
	case w.transport == cluster.UCRIB && c["ams"] == 0:
		return fmt.Errorf("vacuous run: no UCR messages on the UCR workload")
	case w.transport != cluster.UCRIB && (c["ams"] != 0 || c["hca_busy"] != 0):
		return fmt.Errorf("UCR traffic on a sockets workload")
	}
	return nil
}

// simClient is one closed-loop client.
type simClient struct {
	c    *cluster.Client
	mc   *mcclient.Client
	clk  *simnet.VClock
	rng  *rand.Rand
	pipe mcclient.Pipeline
	// window is the in-flight ring of a pipelined client.
	window     []pending
	head, size int
	buf        []byte
	ops        int64
}

// pending is one in-flight pipelined request.
type pending struct {
	id  int64
	key int
	at  simnet.Time
	get *mcclient.GetFuture
	set *mcclient.SetFuture
}

// simRun is the state of one trial.
type simRun struct {
	w       *simWorkload
	ks      *keyspace
	d       *cluster.Deployment
	clients []*simClient
	ver     []uint32
	tr      *tracer

	ops, gets, hits, fails, wrong, oom, errs int64
	issued                                   int64
	lat                                      []int64
	stream                                   []op
	load                                     []int64
}

func (w *simWorkload) trial(ks *keyspace, seed uint64, tr *tracer) (*simTrial, error) {
	r := &simRun{w: w, ks: ks, tr: tr, ver: make([]uint32, len(ks.keys))}
	beh := mcclient.DefaultBehaviors()
	beh.Distribution = w.dist

	t0 := time.Now()
	r.d = cluster.New(cluster.ClusterB(), cluster.Options{Servers: w.servers, MemoryLimit: w.memory})
	defer r.d.Close()
	for i := 0; i < simClients; i++ {
		c, err := r.d.NewClient(w.transport, beh)
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		defer c.Close()
		sc := &simClient{
			c: c, mc: c.MC, clk: c.Clock,
			rng: rand.New(rand.NewPCG(seed, uint64(i)+1)),
			buf: make([]byte, w.maxSize),
		}
		if tr != nil {
			mc, err := wrapClient(c, beh, w.servers, tr)
			if err != nil {
				return nil, err
			}
			sc.mc = mc
		}
		if w.depth > 0 {
			pl, ok := c.MC.Transport(0).(mcclient.Pipeliner)
			if !ok {
				return nil, fmt.Errorf("transport %s cannot pipeline", w.transport)
			}
			sc.pipe = pl.Pipeline(w.depth)
			sc.window = make([]pending, w.depth)
		}
		r.clients = append(r.clients, sc)
	}
	t := &simTrial{deployS: since(t0)}

	t1 := time.Now()
	if err := r.populate(); err != nil {
		return nil, err
	}
	t.populateS = since(t1)

	// Align every client's clock to a common start: the populating
	// client ran ahead, and a shared start keeps the aggregate rate
	// independent of how long populate took.
	var start simnet.Time
	for _, sc := range r.clients {
		start = max(start, sc.clk.Now())
	}
	for _, sc := range r.clients {
		sc.clk.AdvanceTo(start)
	}

	// No collection may run inside the measured phase: a GC cycle parks
	// and resumes goroutines on wall-clock pacing and so reorders the
	// actors' bookings. Collection is deferred to the end of the phase,
	// and its time counts in the phase's wall time.
	runtime.GC()
	before := r.counters()
	r.lat = make([]int64, 0, simClients*w.steps*2)
	if tr != nil {
		r.stream = make([]op, 0, simClients*w.steps*2)
		r.load = make([]int64, w.servers)
		tr.startCPU()
	}
	gcPercent := debug.SetGCPercent(-1)
	memLimit := debug.SetMemoryLimit(phaseMemoryLimit)
	wall := time.Now()
	for step := 0; step < w.steps; step++ {
		for _, sc := range r.clients {
			if w.depth > 0 {
				r.pipeStep(sc)
			} else {
				r.lookasideStep(sc)
			}
		}
	}
	for drained := false; !drained; {
		drained = true
		for _, sc := range r.clients {
			if sc.size > 0 {
				r.settle(sc)
				drained = false
			}
		}
	}
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memLimit)
	runtime.GC()
	t.wallS = since(wall)
	if tr != nil {
		if err := tr.stopCPU(); err != nil {
			return nil, err
		}
		tr.passWall += t.wallS
		tr.passOps += r.ops
	}
	after := r.counters()

	var rate float64
	var makespan simnet.Duration
	for _, sc := range r.clients {
		span := sc.clk.Now() - start
		makespan = max(makespan, span)
		rate += float64(sc.ops) / span.Seconds()
	}
	t.virt = virt{
		kops:     rate / 1e3,
		p50us:    percentile(r.lat, 50) / 1e3,
		p90us:    percentile(r.lat, 90) / 1e3,
		p99us:    percentile(r.lat, 99) / 1e3,
		samples:  len(r.lat),
		hitRatio: float64(r.hits) / float64(r.gets),
		ops:      r.ops,
		fails:    r.fails,
	}
	t.wrong = r.wrong
	t.layer = r.layerCounters(before, after, makespan)
	if r.load != nil {
		var most, sum int64
		for _, n := range r.load {
			most = max(most, n)
			sum += n
		}
		t.layer["ring.load_max_over_mean"] = ratio(float64(most)*float64(len(r.load)), float64(sum))
	}

	// The phase ended with a collection, so this is the live heap.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if tr != nil {
		t.stream = r.stream
		t.populate = r.populateKeys()
	}
	return t, nil
}

// populateKeys lists the keys populate writes, in order: every key when
// the workload's keys are all resident, else warmKeys for the servers'
// memory.
func (r *simRun) populateKeys() []int {
	if r.w.memory == 0 {
		keys := make([]int, len(r.ks.keys))
		for i := range keys {
			keys[i] = i
		}
		return keys
	}
	class := r.ks.slabClasses(r.d.Servers[0].Store().Arena())
	return r.ks.warmKeys(int64(r.w.servers)*r.w.memory, class, r.clients[0].mc.ServerFor)
}

func (r *simRun) populate() error {
	sc := r.clients[0]
	for _, k := range r.populateKeys() {
		key := r.ks.keys[k]
		r.ver[k]++
		err := sc.c.MC.Set(key, fillValue(sc.buf[:r.ks.sizes[k]], key, r.ver[k]), 0, 0)
		// Populate fills the cache to its limit, where a set can meet
		// slab calcification; only the measured loop counts failures.
		if err != nil && !errors.Is(err, mcclient.ErrServerError) {
			return fmt.Errorf("populate %s: %w", key, err)
		}
	}
	return nil
}

// issue numbers the next request; its spans carry the number.
func (r *simRun) issue() int64 {
	r.issued++
	if r.tr != nil {
		r.tr.op = r.issued
	}
	return r.issued
}

func (r *simRun) record(kind uint8, k int) {
	if r.stream != nil {
		r.stream = append(r.stream, op{kind: kind, key: int32(k), size: int32(r.ks.sizes[k])})
	}
}

// route times the client's key-to-server choice and counts each
// server's share of the ops (traced runs only).
func (r *simRun) route(sc *simClient, key string) {
	if r.tr == nil {
		return
	}
	tok := r.tr.begin(spRing)
	i := sc.mc.ServerFor(key)
	r.tr.end(tok)
	if i >= 0 {
		r.load[i]++
	}
}

func (r *simRun) lookasideStep(sc *simClient) {
	k := r.ks.draw(sc.rng)
	if sc.rng.Float64() < r.w.setFrac {
		r.set(sc, k)
		return
	}
	if miss := r.get(sc, k); miss {
		r.set(sc, k)
	}
}

// get issues one blocking get and reports whether it missed.
func (r *simRun) get(sc *simClient, k int) (miss bool) {
	key := r.ks.keys[k]
	r.issue()
	r.route(sc, key)
	at := sc.clk.Now()
	var tok spanTok
	if r.tr != nil {
		tok = r.tr.begin(spClientGet)
	}
	v, _, _, err := sc.mc.Get(key)
	if r.tr != nil {
		r.tr.end(tok)
	}
	r.lat = append(r.lat, int64(sc.clk.Now()-at))
	r.record(opGet, k)
	r.ops++
	sc.ops++
	r.gets++
	switch {
	case err == nil:
		r.hits++
		r.checkHit(v, key)
	case errors.Is(err, mcclient.ErrCacheMiss):
		return true
	default:
		r.fail(err)
	}
	return false
}

func (r *simRun) set(sc *simClient, k int) {
	key := r.ks.keys[k]
	r.issue()
	r.route(sc, key)
	r.ver[k]++
	v := fillValue(sc.buf[:r.ks.sizes[k]], key, r.ver[k])
	at := sc.clk.Now()
	var tok spanTok
	if r.tr != nil {
		tok = r.tr.begin(spClientSet)
	}
	err := sc.mc.Set(key, v, 0, 0)
	if r.tr != nil {
		r.tr.end(tok)
	}
	r.lat = append(r.lat, int64(sc.clk.Now()-at))
	r.record(opSet, k)
	r.ops++
	sc.ops++
	if err != nil {
		r.fail(err)
	}
}

func (r *simRun) checkHit(v []byte, key string) {
	if !checkValue(v, key) {
		r.wrong++
		r.fails++
	}
}

// fail counts one failed op: a transport error, or a SERVER_ERROR
// reply such as out of memory.
func (r *simRun) fail(err error) {
	r.fails++
	r.errs++
	if errors.Is(err, mcclient.ErrServerError) {
		r.oom++
	}
}

// pipeStep issues one request on a pipelined client, first settling
// the oldest one when the window is full. Settling it here, at the
// point the pipeline would have to, stamps its settle time on the
// client's clock.
func (r *simRun) pipeStep(sc *simClient) {
	if sc.size == r.w.depth {
		r.settle(sc)
	}
	k := r.ks.draw(sc.rng)
	key := r.ks.keys[k]
	p := pending{id: r.issue(), key: k}
	r.route(sc, key)
	p.at = sc.clk.Now()
	var tok spanTok
	if r.tr != nil {
		tok = r.tr.begin(spIssue)
	}
	if sc.rng.Float64() < r.w.setFrac {
		r.ver[k]++
		v := fillValue(make([]byte, r.ks.sizes[k]), key, r.ver[k])
		p.set = sc.pipe.StartSet(sc.clk, key, 0, 0, v)
		r.record(opSet, k)
	} else {
		p.get = sc.pipe.StartGet(sc.clk, key)
		r.record(opGet, k)
	}
	if r.tr != nil {
		r.tr.end(tok)
	}
	sc.window[(sc.head+sc.size)%len(sc.window)] = p
	sc.size++
}

// settle waits for a pipelined client's oldest request.
func (r *simRun) settle(sc *simClient) {
	p := sc.window[sc.head]
	sc.window[sc.head] = pending{}
	sc.head = (sc.head + 1) % len(sc.window)
	sc.size--
	var tok spanTok
	if r.tr != nil {
		r.tr.op = p.id
		tok = r.tr.begin(spWait)
	}
	var err error
	if p.get != nil {
		var v []byte
		var hit bool
		v, _, _, hit, err = p.get.Wait(sc.clk)
		r.gets++
		switch {
		case err != nil:
		case hit:
			r.hits++
			r.checkHit(v, r.ks.keys[p.key])
		default:
			// Every key is resident: a miss lost a stored value.
			r.fails++
		}
	} else {
		var res memcached.StoreResult
		res, err = p.set.Wait(sc.clk)
		if err == nil && res != memcached.Stored {
			err = fmt.Errorf("%w: %s", mcclient.ErrServerError, res)
		}
	}
	if r.tr != nil {
		r.tr.end(tok)
	}
	if err != nil {
		r.fail(err)
	}
	r.lat = append(r.lat, int64(sc.clk.Now()-p.at))
	r.ops++
	sc.ops++
}
