package mcclient

import (
	"fmt"
	"time"

	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// errTooBig reports a get that a UD endpoint cannot answer: the value
// (or an mget's aggregate reply) exceeds one datagram, and the server
// punted with AMTooBig or AMMGetRetry. It is a server-side failure, not
// a miss, and it does not eject the server.
var errTooBig = fmt.Errorf("%w: value exceeds one datagram", ErrServerError)

// UCRTransport speaks the paper's active-message protocol (§V): every
// request is AM 1 carrying the client's counter C; the client then
// blocks on C with a timeout while driving its progress context, and
// the server's AM 2 reply targets C. Get replies land in a client-local
// buffer pool, sized on demand when the header handler learns the item
// length (§V-C).
//
// Every request gets a fresh counter, whose id doubles as the request
// tag: the reply AM targets that counter, so the reply handlers route
// by tag into a slot table. With one request in flight this changes
// nothing; with a pipelined window it lets any number of replies land
// out of order, and a late duplicate from a timed-out attempt (its tag
// no longer in the table) is dropped instead of clobbering the slot of
// whatever request happens to be waiting.
type UCRTransport struct {
	name    string
	rt      *ucr.Runtime
	ctx     *ucr.Context
	ep      *ucr.Endpoint
	timeout simnet.Duration
	noReply bool

	// Tagged reply slots, written by the AM handlers while this
	// transport's owner drives progress.
	slots    map[ucr.CounterID]*amOp
	scratch  []byte   // landing space for replies whose tag matches no slot
	freeBufs [][]byte // pooled landing buffers for get/mget values
	freeOps  []*amOp

	// One-sided GET fast path (see onesided.go).
	os           osState
	lastOneSided bool // most recent Get was served one-sided

	// Write-based reply arena (see wrreply.go).
	wr wrState
}

// amOp is one in-flight request: its tag (= reply counter id), where
// the reply landed, and how to (re-)send it.
type amOp struct {
	tag    ucr.CounterID
	ctr    *ucr.Counter
	lend   []byte // caller-lent value buffer (GetInto); nil = pool
	pooled bool   // data came from the transport pool: recycle on finish
	wrSlot int32  // write-reply slot index + 1; 0 = none
	// Deferred write-reply landing: the notify recorded wrPendLen slot
	// bytes pending copy-out (see wrMaterialize/wrTake). The slot stays
	// busy until the landing materializes and the op is finished.
	wrPend    bool
	wrPendLen int
	data      []byte // landed value bytes
	tooBig    bool   // AMMGetRetry: the mget reply exceeds one datagram
	status    memcached.StatusReply
	get       memcached.GetReply
	mget      memcached.MGetReply
	num       memcached.NumReply
	osd       memcached.OSDescReply
	send      func() error // exotic issue paths; nil = field-driven sendAM
	// Field-driven send for the hot GET/SET paths: a closure per op
	// would allocate, so the blocking fast paths park the arguments on
	// the (pooled) op instead and sendAM replays them. hdrBuf is the
	// reusable header-encode buffer; it survives pool recycling.
	sendMsg uint8
	sendHdr []byte
	sendVal []byte
	sendClk *simnet.VClock
	hdrBuf  []byte
}

// sendAM issues op: the closure when one was installed, otherwise the
// field-driven form (message id, header, value).
func (t *UCRTransport) sendAM(op *amOp) error {
	if op.send != nil {
		return op.send()
	}
	return t.ep.Send(op.sendClk, op.sendMsg, op.sendHdr, op.sendVal, nil, 0, nil)
}

// DialUCR establishes a reliable UCR endpoint to a memcached server and
// installs the reply handlers on the client runtime (idempotent).
func DialUCR(rt *ucr.Runtime, ctx *ucr.Context, to *simnet.Node, service string, behaviors Behaviors, clk *simnet.VClock) (*UCRTransport, error) {
	return dialUCR(rt, ctx, to, service, behaviors, clk, ucr.Reliable)
}

// DialUCRUnreliable uses a UD-backed endpoint (§VII future work: the
// datagram transport for scaling client counts). Values beyond one MTU
// cannot be carried.
func DialUCRUnreliable(rt *ucr.Runtime, ctx *ucr.Context, to *simnet.Node, service string, behaviors Behaviors, clk *simnet.VClock) (*UCRTransport, error) {
	return dialUCR(rt, ctx, to, service, behaviors, clk, ucr.Unreliable)
}

func dialUCR(rt *ucr.Runtime, ctx *ucr.Context, to *simnet.Node, service string, behaviors Behaviors, clk *simnet.VClock, rel ucr.Reliability) (*UCRTransport, error) {
	RegisterClientHandlers(rt)
	ep, err := rt.Dial(ctx, to, service, rel, clk, 5*time.Second)
	if err != nil {
		return nil, err
	}
	t := &UCRTransport{
		name:    to.Name() + "/" + service,
		rt:      rt,
		ctx:     ctx,
		ep:      ep,
		timeout: behaviors.OpTimeout,
		noReply: behaviors.NoReply,
		slots:   make(map[ucr.CounterID]*amOp),
	}
	ep.UserData = t
	return t, nil
}

// RegisterClientHandlers installs the AM 2 reply handlers on a client
// runtime. Safe to call repeatedly.
func RegisterClientHandlers(rt *ucr.Runtime) {
	nilHeader := func(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return nil }
	statusCompletion := func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
		t, ok := ep.UserData.(*UCRTransport)
		if !ok {
			return
		}
		if op := t.slots[tag]; op != nil {
			op.status, _ = memcached.DecodeStatusReply(hdr)
		}
	}
	rt.RegisterHandler(memcached.AMSetReply, ucr.Handler{Header: nilHeader, Completion: statusCompletion})
	rt.RegisterHandler(memcached.AMDeleteReply, ucr.Handler{Header: nilHeader, Completion: statusCompletion})
	rt.RegisterHandler(memcached.AMGetReply, ucr.Handler{
		Header: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, tag ucr.CounterID) []byte {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return nil
			}
			// §V-C: the client learns the item size here and picks the
			// destination — the request's lent or pooled buffer.
			return t.landingBuf(tag, dataLen)
		},
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return
			}
			op := t.slots[tag]
			if op == nil {
				// Late duplicate: its tag was retired, suppress. The
				// mutation build accepts it into a live slot instead —
				// the bug class this scheme exists to prevent. Accepting
				// means the whole completion event lands on the victim:
				// payload AND counter fire, so the victim's waiter
				// returns this stale reply as its own.
				if v := t.dupVictim(); v != nil {
					v.get, _ = memcached.DecodeGetReply(hdr)
					v.data = data
					v.ctr.MutBump()
				}
				return
			}
			op.get, _ = memcached.DecodeGetReply(hdr)
			op.data = data
		},
	})
	rt.RegisterHandler(memcached.AMMGetRetry, ucr.Handler{
		Header: nilHeader,
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return
			}
			if op := t.slots[tag]; op != nil {
				op.tooBig = true
			}
		},
	})
	rt.RegisterHandler(memcached.AMMGetReply, ucr.Handler{
		Header: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, tag ucr.CounterID) []byte {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return nil
			}
			return t.landingBuf(tag, dataLen)
		},
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return
			}
			if op := t.slots[tag]; op != nil {
				op.mget, _ = memcached.DecodeMGetReply(hdr)
				op.data = data
			}
		},
	})
	rt.RegisterHandler(memcached.AMOSDescReply, ucr.Handler{
		Header: nilHeader,
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return
			}
			if op := t.slots[tag]; op != nil {
				op.osd, _ = memcached.DecodeOSDescReply(hdr)
			}
		},
	})
	rt.RegisterHandler(memcached.AMNumReply, ucr.Handler{
		Header: nilHeader,
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
			t, ok := ep.UserData.(*UCRTransport)
			if !ok {
				return
			}
			if op := t.slots[tag]; op != nil {
				op.num, _ = memcached.DecodeNumReply(hdr)
			}
		},
	})
	registerWrReplyHandlers(rt)
}

// landingBuf picks where a reply value lands: the tagged request's lent
// buffer when it fits, a pooled buffer otherwise — or the transport's
// scratch space when the tag matches no slot (a late duplicate from a
// timed-out attempt), which lands there and is dropped without touching
// any live request.
func (t *UCRTransport) landingBuf(tag ucr.CounterID, dataLen int) []byte {
	if dataLen == 0 {
		return nil
	}
	op := t.slots[tag]
	if op == nil {
		if v := t.dupVictim(); v != nil {
			op = v // mutation build: clobber a live slot (see dupVictim)
		} else {
			return t.scratchFor(dataLen)
		}
	}
	if op.lend != nil && cap(op.lend) >= dataLen {
		op.pooled = false
		op.data = op.lend[:dataLen]
	} else {
		op.pooled = true
		op.data = t.takeBuf(dataLen)
	}
	return op.data
}

// dupVictim is the mut_dup_ack seeded bug: instead of suppressing a
// reply whose tag matches no slot (a late duplicate from a re-sent
// request whose original answer also arrived), it "accepts it twice" by
// routing it into whichever live slot has the lowest tag — exactly the
// clobbering the tagged-counter scheme prevents. Always nil in a normal
// build.
func (t *UCRTransport) dupVictim() *amOp {
	if !memcached.MutDupAck {
		return nil
	}
	var victim *amOp
	for tag, op := range t.slots {
		if victim == nil || tag < victim.tag {
			victim = op
		}
	}
	return victim
}

// scratchCap bounds the retained stale-reply landing buffer.
const scratchCap = 64 << 10

func (t *UCRTransport) scratchFor(n int) []byte {
	if n > scratchCap {
		return make([]byte, n)
	}
	if cap(t.scratch) < n {
		t.scratch = make([]byte, n, scratchCap)
	}
	return t.scratch[:n]
}

// takeBuf pops a pooled landing buffer (growing it if undersized).
func (t *UCRTransport) takeBuf(n int) []byte {
	if k := len(t.freeBufs); k > 0 {
		b := t.freeBufs[k-1]
		t.freeBufs = t.freeBufs[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (t *UCRTransport) recycleBuf(b []byte) {
	if cap(b) > 0 && len(t.freeBufs) < 16 {
		t.freeBufs = append(t.freeBufs, b[:cap(b)])
	}
}

// newOp opens a tagged request slot around a fresh counter. Counter ids
// are never reused by the runtime, so a tag uniquely names one request
// for the transport's lifetime.
func (t *UCRTransport) newOp() *amOp {
	var op *amOp
	if k := len(t.freeOps); k > 0 {
		op = t.freeOps[k-1]
		t.freeOps = t.freeOps[:k-1]
		hdr := op.hdrBuf
		*op = amOp{}
		op.hdrBuf = hdr[:0]
	} else {
		op = &amOp{}
	}
	op.ctr = t.rt.NewCounter()
	op.tag = op.ctr.ID()
	t.slots[op.tag] = op
	return op
}

// finishOp retires a request: the tag leaves the slot table (late
// duplicates now land in scratch), the counter is freed (their bumps
// become no-ops), and the pooled landing buffer is recycled. A
// write-reply slot is released unconditionally — RC FIFO on the
// transport's one QP orders any late write to it before a later
// request's write, so recycling can never expose stale data.
func (t *UCRTransport) finishOp(op *amOp) {
	delete(t.slots, op.tag)
	t.rt.FreeCounter(op.ctr)
	if op.pooled {
		t.recycleBuf(op.data)
	}
	if op.wrSlot != 0 {
		t.wrRelease(op.wrSlot - 1)
	}
	hdr := op.hdrBuf
	*op = amOp{}
	op.hdrBuf = hdr[:0]
	t.freeOps = append(t.freeOps, op)
}

// Name identifies the server.
func (t *UCRTransport) Name() string { return t.name }

// Endpoint exposes the UCR endpoint (tests).
func (t *UCRTransport) Endpoint() *ucr.Endpoint { return t.ep }

// do sends op and blocks on its counter (§V-B: "a blocking call with
// client specified timeout"). With the runtime's AMRetries knob set, a
// timed-out request is re-sent — the per-attempt wait is the op timeout
// split across attempts, so the overall deadline holds — and only after
// the budget is exhausted is the endpoint marked failed (§IV-A: the
// client decides the server has gone down, isolating this endpoint
// without touching the runtime). On error the op is retired; on success
// the caller reads the slot and retires it.
func (t *UCRTransport) do(clk *simnet.VClock, op *amOp) error {
	attempts := 1 + t.rt.Config().AMRetries
	per := t.perAttempt(attempts)
	for a := 0; a < attempts; a++ {
		if err := t.sendAM(op); err != nil {
			t.finishOp(op)
			return ErrServerDown
		}
		err := t.ctx.WaitCounter(clk, op.ctr, 1, per)
		if err == nil {
			return nil
		}
		if err != ucr.ErrTimeout {
			t.finishOp(op)
			return ErrServerDown
		}
	}
	t.finishOp(op)
	t.ep.MarkFailed()
	return ErrServerDown
}

// perAttempt splits the op timeout across the retry budget.
func (t *UCRTransport) perAttempt(attempts int) simnet.Duration {
	if t.timeout <= 0 {
		return 0
	}
	per := t.timeout / simnet.Duration(attempts)
	if per <= 0 {
		per = 1
	}
	return per
}

// waitDone is the pipelined-wait half of do: the op was already sent
// when its window flushed, so this only drives progress — draining the
// CQ in batches sized to the window — and re-sends after per-attempt
// timeouts. The caller owns retiring the op.
func (t *UCRTransport) waitDone(clk *simnet.VClock, op *amOp, batch int) error {
	if op.ctr.Value() >= 1 {
		return nil
	}
	if t.ep.Failed() {
		return ErrServerDown
	}
	attempts := 1 + t.rt.Config().AMRetries
	per := t.perAttempt(attempts)
	for a := 0; a < attempts; a++ {
		err := t.ctx.WaitCounterBatch(clk, op.ctr, 1, per, batch)
		if err == nil {
			return nil
		}
		if err != ucr.ErrTimeout {
			return ErrServerDown
		}
		if a+1 < attempts {
			if serr := t.sendAM(op); serr != nil {
				return ErrServerDown
			}
		}
	}
	t.ep.MarkFailed()
	return ErrServerDown
}

// Set implements Transport. With the NoReply behaviour the request
// carries no reply counter — the server stores the item and answers
// nothing (§V-B's reply is driven entirely by the client's counter C) —
// and the client only waits for local completion (origin counter,
// §IV-C), which is when its buffer is reusable.
func (t *UCRTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	if t.noReply {
		hdr := memcached.EncodeSetReq(memcached.SetReq{
			ReplyCtr: 0, Flags: flags, Exptime: exptime, Key: key,
		})
		origin := t.rt.NewCounter()
		defer t.rt.FreeCounter(origin)
		if err := t.ep.Send(clk, memcached.AMSet, hdr, value, origin, 0, nil); err != nil {
			return 0, ErrServerDown
		}
		if err := t.ctx.WaitCounter(clk, origin, 1, t.timeout); err != nil {
			return 0, ErrServerDown
		}
		return memcached.Stored, nil
	}
	op := t.newOp()
	op.hdrBuf = memcached.AppendSetReq(op.hdrBuf[:0], memcached.SetReq{
		ReplyCtr: op.tag, Flags: flags, Exptime: exptime, Key: key,
	})
	op.sendMsg = memcached.AMSet
	op.sendHdr = op.hdrBuf
	op.sendVal = value
	op.sendClk = clk
	if err := t.do(clk, op); err != nil {
		return 0, err
	}
	defer t.finishOp(op)
	if op.status.Status != memcached.AMOK {
		return op.status.Result, nil
	}
	return memcached.Stored, nil
}

// getOp issues one get request and blocks for its reply; the caller
// reads the slot and retires it.
func (t *UCRTransport) getOp(clk *simnet.VClock, key string, lend []byte) (*amOp, error) {
	op := t.newOp()
	op.lend = lend
	if i, ok := t.wrAcquire(); ok {
		op.wrSlot = i + 1
		op.hdrBuf = memcached.AppendGetWReq(op.hdrBuf[:0], memcached.GetWReq{
			ReplyCtr: op.tag, Slot: uint16(i), Key: key,
		})
		op.sendMsg = memcached.AMGetW
	} else {
		op.hdrBuf = memcached.AppendKeyReq(op.hdrBuf[:0], memcached.KeyReq{ReplyCtr: op.tag, Key: key})
		op.sendMsg = memcached.AMGet
	}
	op.sendHdr = op.hdrBuf
	op.sendClk = clk
	if err := t.do(clk, op); err != nil {
		return nil, err
	}
	// A blocking caller reads op.data next: land any deferred write
	// reply now (no later wait to hide the copy under).
	t.wrMaterialize(clk, op)
	if op.get.Status == memcached.AMTooBig {
		t.finishOp(op)
		return nil, errTooBig
	}
	return op, nil
}

// Get implements Transport. With the one-sided path enabled, a
// validated RDMA read serves the hit without any server AM; everything
// else falls through to the two-sided protocol.
func (t *UCRTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	t.lastOneSided = false
	if v, fl, cas, ok := t.oneSidedGet(clk, key, nil); ok {
		return v, fl, cas, true, nil
	}
	op, err := t.getOp(clk, key, nil)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer t.finishOp(op)
	if op.get.Status != memcached.AMOK {
		return nil, 0, 0, false, nil
	}
	out := make([]byte, len(op.data))
	copy(out, op.data)
	return out, op.get.Flags, op.get.CAS, true, nil
}

// GetInto is Get with a caller-lent value buffer: when the value fits
// in cap(buf), the reply header handler lands it directly there and the
// returned slice aliases buf — no allocation and no copy on the hot
// path. A value too large for buf is returned in a fresh allocation.
func (t *UCRTransport) GetInto(clk *simnet.VClock, key string, buf []byte) ([]byte, uint32, uint64, bool, error) {
	t.lastOneSided = false
	if v, fl, cas, ok := t.oneSidedGet(clk, key, buf); ok {
		return v, fl, cas, true, nil
	}
	op, err := t.getOp(clk, key, buf)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer t.finishOp(op)
	if op.get.Status != memcached.AMOK {
		return nil, 0, 0, false, nil
	}
	v := op.data
	if op.pooled {
		v = append([]byte(nil), op.data...)
	}
	return v, op.get.Flags, op.get.CAS, true, nil
}

// maxMGetKeys bounds one mget AM's key batch, well under the header's
// uint16 key-count field.
const maxMGetKeys = 4096

// mgetOp issues one multi-get AM and blocks for its reply. A UD
// endpoint answers a batch whose aggregate reply outgrows one datagram
// with the AMMGetRetry marker; that op is retired here and reported as
// errTooBig.
func (t *UCRTransport) mgetOp(clk *simnet.VClock, keys []string, lend []byte) (*amOp, error) {
	op := t.newOp()
	op.lend = lend
	if i, ok := t.wrAcquire(); ok {
		op.wrSlot = i + 1
		rcHdr := memcached.AppendMGetWReq(nil, op.tag, uint16(i), keys)
		op.send = func() error {
			return t.ep.Send(clk, memcached.AMMGetW, rcHdr, nil, nil, 0, nil)
		}
	} else {
		rcHdr := memcached.EncodeMGetReq(memcached.MGetReq{ReplyCtr: op.tag, Keys: keys})
		op.send = func() error {
			return t.ep.Send(clk, memcached.AMMGet, rcHdr, nil, nil, 0, nil)
		}
	}
	if err := t.do(clk, op); err != nil {
		return nil, err
	}
	if op.tooBig {
		t.finishOp(op)
		return nil, errTooBig
	}
	return op, nil
}

// GetMulti implements Transport with a single mget active message: the
// reply carries all metadata in its header and the values concatenated
// as the AM data (one transaction if small, one RDMA read if large).
func (t *UCRTransport) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	if len(keys) > maxMGetKeys {
		// The mget header carries the key count as a uint16: batches past
		// the cap would silently truncate on the wire (found by
		// FuzzAMCodecs), so oversized batches go out as several AMs.
		out := make(map[string][]byte, len(keys))
		for start := 0; start < len(keys); start += maxMGetKeys {
			part, err := t.GetMulti(clk, keys[start:min(start+maxMGetKeys, len(keys))])
			if err != nil {
				return nil, err
			}
			for k, v := range part {
				out[k] = v
			}
		}
		return out, nil
	}
	op, err := t.mgetOp(clk, keys, nil)
	if err != nil {
		return nil, err
	}
	defer t.finishOp(op)
	out := make(map[string][]byte, len(op.mget.Items))
	off := 0
	for _, it := range op.mget.Items {
		if off+it.ValueLen > len(op.data) {
			return nil, memcached.ErrShortAMHeader
		}
		v := make([]byte, it.ValueLen)
		copy(v, op.data[off:off+it.ValueLen])
		out[it.Key] = v
		off += it.ValueLen
	}
	return out, nil
}

// GetMultiInto is GetMulti with a caller-lent buffer for the
// concatenated value block: when it fits in cap(buf), the returned map
// values are subslices of buf — zero copies. The caller must consume
// them before reusing buf.
func (t *UCRTransport) GetMultiInto(clk *simnet.VClock, keys []string, buf []byte) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	op, err := t.mgetOp(clk, keys, buf)
	if err != nil {
		return nil, err
	}
	defer t.finishOp(op)
	block := op.data
	if op.pooled {
		block = append([]byte(nil), op.data...)
	}
	out := make(map[string][]byte, len(op.mget.Items))
	off := 0
	for _, it := range op.mget.Items {
		if off+it.ValueLen > len(block) {
			return nil, memcached.ErrShortAMHeader
		}
		out[it.Key] = block[off : off+it.ValueLen : off+it.ValueLen]
		off += it.ValueLen
	}
	return out, nil
}

// Delete implements Transport.
func (t *UCRTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	op := t.newOp()
	hdr := memcached.EncodeKeyReq(memcached.KeyReq{ReplyCtr: op.tag, Key: key})
	op.send = func() error {
		return t.ep.Send(clk, memcached.AMDelete, hdr, nil, nil, 0, nil)
	}
	if err := t.do(clk, op); err != nil {
		return false, err
	}
	defer t.finishOp(op)
	return op.status.Status == memcached.AMOK, nil
}

// IncrDecr implements Transport.
func (t *UCRTransport) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	amID := memcached.AMIncr
	if !incr {
		amID = memcached.AMDecr
	}
	op := t.newOp()
	hdr := memcached.EncodeNumReq(memcached.NumReq{ReplyCtr: op.tag, Delta: delta, Key: key})
	op.send = func() error {
		return t.ep.Send(clk, amID, hdr, nil, nil, 0, nil)
	}
	if err := t.do(clk, op); err != nil {
		return 0, false, false, err
	}
	defer t.finishOp(op)
	switch op.num.Status {
	case memcached.AMOK:
		return op.num.Value, true, false, nil
	case memcached.AMBadValue:
		return 0, true, true, nil
	case memcached.AMError:
		// Server-side failure (e.g. OOM growing the value): distinct
		// from a miss and from a non-numeric value.
		return 0, true, false, ErrServerError
	default:
		return 0, false, false, nil
	}
}

// Close implements Transport.
func (t *UCRTransport) Close() {
	for tag, op := range t.slots {
		delete(t.slots, tag)
		t.rt.FreeCounter(op.ctr)
	}
	if t.wr.win != nil {
		t.wr.armed = false
		t.wr.win.Close()
	}
	t.ep.Close()
}
