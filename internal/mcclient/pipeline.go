package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Pipelined transports: issue and completion split apart so one
// connection can keep a window of N requests in flight. The blocking
// Transport methods pay every per-op fixed cost (doorbell, CQ wakeup,
// full round trip) serially; a Pipeline overlaps them — requests in a
// window are posted as one doorbell burst, and a wait for one reply
// drains whatever other replies are already visible at the coalesced
// CQ cost. Tagged reply slots (see UCRTransport) route each reply to
// its own request regardless of arrival order.
//
// A Pipeline borrows its transport's connection: while a window is
// outstanding, do not interleave blocking Transport calls on the same
// transport. Futures may be waited in any order (or dropped — Wait
// settles everything).

// Pipeliner is implemented by transports that support windowed
// pipelining.
type Pipeliner interface {
	// Pipeline opens a pipelined issue path with a window of at most
	// `window` in-flight requests (minimum 1).
	Pipeline(window int) Pipeline
}

// Pipeline is the windowed asynchronous issue API. Start* calls return
// immediately with a Future; once the window is full the oldest request
// is completed to make room. Flush forces queued requests onto the
// wire; Wait flushes and settles every outstanding future.
type Pipeline interface {
	StartGet(clk *simnet.VClock, key string) *GetFuture
	// StartGetInto is StartGet with a caller-lent value buffer (see
	// UCRTransport.GetInto); the future's value aliases buf when it fit.
	StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture
	// StartSet issues a set; value must stay untouched until the future
	// settles (large values are exposed for rendezvous reads in place).
	StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture
	StartDelete(clk *simnet.VClock, key string) *BoolFuture
	// Flush pushes every queued request onto the wire in one batch.
	Flush(clk *simnet.VClock) error
	// Wait flushes and settles all outstanding futures, returning the
	// first transport-level error (per-op outcomes live on the futures).
	Wait(clk *simnet.VClock) error
	// Window reports the configured depth.
	Window() int
}

// GetFuture is the pending result of StartGet.
type GetFuture struct {
	value []byte
	flags uint32
	cas   uint64
	hit   bool
	err   error
	done  bool
	wait  func(clk *simnet.VClock)
}

// Wait settles the future (driving the pipeline as needed) and returns
// the get outcome, mirroring Transport.Get.
func (f *GetFuture) Wait(clk *simnet.VClock) ([]byte, uint32, uint64, bool, error) {
	if !f.done {
		f.wait(clk)
	}
	return f.value, f.flags, f.cas, f.hit, f.err
}

// SetFuture is the pending result of StartSet.
type SetFuture struct {
	res  memcached.StoreResult
	err  error
	done bool
	wait func(clk *simnet.VClock)
}

// Wait settles the future and returns the store outcome.
func (f *SetFuture) Wait(clk *simnet.VClock) (memcached.StoreResult, error) {
	if !f.done {
		f.wait(clk)
	}
	return f.res, f.err
}

// BoolFuture is the pending result of StartDelete.
type BoolFuture struct {
	ok   bool
	err  error
	done bool
	wait func(clk *simnet.VClock)
}

// Wait settles the future and returns the outcome.
func (f *BoolFuture) Wait(clk *simnet.VClock) (bool, error) {
	if !f.done {
		f.wait(clk)
	}
	return f.ok, f.err
}

// pipeOp is one pipelined request: the tagged op, whether its send hit
// the wire yet, and how to record its outcome into the future.
type pipeOp struct {
	op     *amOp
	sent   bool
	failed bool // send never reached the wire: settle ErrServerDown
	done   bool
	settle func(err error)
	// land is non-nil while a write-reply landing is deferred: the value
	// still sits in the op's reply slot and this materializes the
	// copy-out into the future (then retires the op). The pipeline runs
	// pending landings just before each blocking CQ wait, so the copy
	// overlaps the wire instead of delaying the next request.
	land func(clk *simnet.VClock)
}

// Pipeline implements Pipeliner: the returned pipeline issues AM
// requests without waiting, posts each full window as one doorbell
// burst (Context post batching → verbs.PostSendN), and waits with
// window-sized CQ drains (WaitCounterBatch).
func (t *UCRTransport) Pipeline(window int) Pipeline {
	if window < 1 {
		window = 1
	}
	return &ucrPipeline{t: t, window: window}
}

type ucrPipeline struct {
	t      *UCRTransport
	window int
	q      []*pipeOp // outstanding, issue order
	pend   []*pipeOp // trailing entries whose sends are still queued
	landq  []*pipeOp // settled entries with a deferred write-reply landing
	err    error     // first transport-level error (sticky)
}

func (p *ucrPipeline) Window() int { return p.window }

// push admits e into the window — completing the oldest request when
// the window is full — and flushes every half window. Flushing only on
// a full window would batch-synchronize the pipe (drain all, then
// repost all, wire idle in between); half-window bursts keep at least
// window/2 requests on the wire through the refill while still
// coalescing doorbells — and arriving in bursts is what lets the
// server's batched CQ drain engage its coalesced costs. Queued sends
// are additionally flushed before blocking for window room: holding
// them through a wait would drain the wire exactly when it most needs
// feeding and degrade serving to a per-window relay.
func (p *ucrPipeline) push(clk *simnet.VClock, e *pipeOp) {
	if len(p.q) >= p.window && len(p.pend) > 0 {
		p.Flush(clk)
	}
	for len(p.q) >= p.window {
		p.waitFor(clk, p.q[0])
	}
	p.q = append(p.q, e)
	p.pend = append(p.pend, e)
	if len(p.pend) >= (p.window+1)/2 {
		p.Flush(clk)
	}
}

// Flush sends every queued request in one post batch: packets are
// encoded and charged as usual, their work requests posted with a
// single doorbell (PostSendN).
func (p *ucrPipeline) Flush(clk *simnet.VClock) error {
	if len(p.pend) == 0 {
		return nil
	}
	t := p.t
	t.ctx.BeginPostBatch()
	var sendErr error
	for _, e := range p.pend {
		if sendErr == nil {
			sendErr = t.sendAM(e.op)
		}
		if sendErr != nil {
			e.failed = true
		}
		e.sent = true
	}
	if err := t.ctx.FlushPosts(clk); err != nil && sendErr == nil {
		sendErr = err
		for _, e := range p.pend {
			e.failed = true
		}
	}
	p.pend = p.pend[:0]
	if sendErr != nil {
		p.fail(ErrServerDown)
		return ErrServerDown
	}
	return nil
}

func (p *ucrPipeline) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// drainLandings materializes every deferred write-reply copy-out. Run
// just before a blocking CQ wait, the copies are charged while the
// awaited reply is still on the wire; the forward-only sync to its
// arrival then swallows them (see wrLand).
func (p *ucrPipeline) drainLandings(clk *simnet.VClock) {
	for i, e := range p.landq {
		if e.land != nil {
			e.land(clk)
		}
		p.landq[i] = nil
	}
	p.landq = p.landq[:0]
}

// waitFor settles one outstanding entry (in any order — tagged slots
// let replies land while a different tag is being waited on).
func (p *ucrPipeline) waitFor(clk *simnet.VClock, e *pipeOp) {
	if e.done {
		if e.land != nil {
			e.land(clk)
		}
		return
	}
	if !e.sent {
		p.Flush(clk)
	}
	var err error
	if e.failed {
		err = ErrServerDown
	} else {
		p.drainLandings(clk)
		err = p.t.waitDone(clk, e.op, p.window)
	}
	if err != nil {
		p.fail(err)
	}
	e.settle(err)
	e.done = true
	p.remove(e)
	if e.land != nil {
		// Deferred write-reply landing: the op keeps its reply slot until
		// the copy-out materializes at the next blocking wait (or on the
		// future's own Wait, whichever comes first).
		p.landq = append(p.landq, e)
	} else {
		p.t.finishOp(e.op)
	}
}

func (p *ucrPipeline) remove(e *pipeOp) {
	for i, x := range p.q {
		if x == e {
			p.q = append(p.q[:i], p.q[i+1:]...)
			return
		}
	}
}

// Wait flushes and settles everything outstanding.
func (p *ucrPipeline) Wait(clk *simnet.VClock) error {
	p.Flush(clk)
	for len(p.q) > 0 {
		p.waitFor(clk, p.q[0])
	}
	p.drainLandings(clk)
	return p.err
}

func (p *ucrPipeline) StartGet(clk *simnet.VClock, key string) *GetFuture {
	return p.startGet(clk, key, nil)
}

func (p *ucrPipeline) StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture {
	return p.startGet(clk, key, buf)
}

func (p *ucrPipeline) startGet(clk *simnet.VClock, key string, lend []byte) *GetFuture {
	t := p.t
	f := &GetFuture{}
	op := t.newOp()
	op.lend = lend
	var hdr []byte
	msg := memcached.AMGet
	if i, ok := t.wrAcquire(); ok {
		op.wrSlot = i + 1
		hdr = memcached.EncodeGetWReq(memcached.GetWReq{ReplyCtr: op.tag, Slot: uint16(i), Key: key})
		msg = memcached.AMGetW
	} else {
		hdr = memcached.EncodeKeyReq(memcached.KeyReq{ReplyCtr: op.tag, Key: key})
	}
	op.send = func() error {
		return t.ep.Send(clk, msg, hdr, nil, nil, 0, nil)
	}
	e := &pipeOp{op: op}
	e.settle = func(err error) {
		if err != nil {
			f.done = true
			f.err = err
			return
		}
		if op.get.Status != memcached.AMOK {
			f.done = true
			if op.get.Status == memcached.AMTooBig {
				f.err = errTooBig
			}
			return
		}
		f.hit = true
		f.flags, f.cas = op.get.Flags, op.get.CAS
		if op.wrPend {
			// Value still sits in the reply slot: defer the copy-out so
			// it lands under the next wait's wire time.
			e.land = func(clk *simnet.VClock) {
				f.value = t.wrTake(clk, op)
				f.done = true
				e.land = nil
				t.finishOp(op)
			}
			return
		}
		f.done = true
		v := op.data
		if op.pooled {
			v = append([]byte(nil), op.data...)
		}
		f.value = v
	}
	f.wait = func(clk *simnet.VClock) { p.waitFor(clk, e) }
	p.push(clk, e)
	return f
}

func (p *ucrPipeline) StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	t := p.t
	f := &SetFuture{}
	op := t.newOp()
	hdr := memcached.EncodeSetReq(memcached.SetReq{
		ReplyCtr: op.tag, Flags: flags, Exptime: exptime, Key: key,
	})
	op.send = func() error {
		return t.ep.Send(clk, memcached.AMSet, hdr, value, nil, 0, nil)
	}
	e := &pipeOp{op: op}
	e.settle = func(err error) {
		f.done = true
		if err != nil {
			f.err = err
			return
		}
		if op.status.Status != memcached.AMOK {
			f.res = op.status.Result
			return
		}
		f.res = memcached.Stored
	}
	f.wait = func(clk *simnet.VClock) { p.waitFor(clk, e) }
	p.push(clk, e)
	return f
}

func (p *ucrPipeline) StartDelete(clk *simnet.VClock, key string) *BoolFuture {
	t := p.t
	f := &BoolFuture{}
	op := t.newOp()
	hdr := memcached.EncodeKeyReq(memcached.KeyReq{ReplyCtr: op.tag, Key: key})
	op.send = func() error {
		return t.ep.Send(clk, memcached.AMDelete, hdr, nil, nil, 0, nil)
	}
	e := &pipeOp{op: op}
	e.settle = func(err error) {
		f.done = true
		if err != nil {
			f.err = err
			return
		}
		f.ok = op.status.Status == memcached.AMOK
	}
	f.wait = func(clk *simnet.VClock) { p.waitFor(clk, e) }
	p.push(clk, e)
	return f
}

// interface conformance
var (
	_ Pipeliner = (*UCRTransport)(nil)
	_ Pipeline  = (*ucrPipeline)(nil)
)
