package verbs

import (
	"sync"

	"repro/internal/simnet"
)

// QP is a queue pair: the verbs communication endpoint. An RC (reliable
// connected) QP is wired 1:1 to a peer QP by the connection manager; a
// UD (unreliable datagram) QP sends to any peer named by an address
// handle, with silent loss when the receiver has no buffer posted.
type QP struct {
	hca    *HCA
	typ    QPType
	qpn    uint32
	sendCQ *CQ
	recvCQ *CQ
	srq    *SRQ // optional shared receive queue

	mu     sync.Mutex
	state  QPState
	recvq  []RecvWR
	remote *QP // RC peer, set by the connection manager
}

// NewQP creates a queue pair in the RESET state.
func (h *HCA) NewQP(typ QPType, sendCQ, recvCQ *CQ) *QP {
	qp := &QP{hca: h, typ: typ, sendCQ: sendCQ, recvCQ: recvCQ, state: StateReset}
	qp.qpn = h.registerQP(qp)
	return qp
}

// NewQPWithSRQ creates a queue pair whose receives come from a shared
// receive queue (the MVAPICH-style scalability feature the paper's UCR
// inherits its buffer management from).
func (h *HCA) NewQPWithSRQ(typ QPType, sendCQ, recvCQ *CQ, srq *SRQ) *QP {
	qp := h.NewQP(typ, sendCQ, recvCQ)
	qp.srq = srq
	return qp
}

// QPN reports the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Type reports RC or UD.
func (q *QP) Type() QPType { return q.typ }

// HCA reports the owning adapter.
func (q *QP) HCA() *HCA { return q.hca }

// State reports the current state.
func (q *QP) State() QPState {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state
}

// Modify transitions the state machine, enforcing the legal bring-up
// order RESET→INIT→RTR→RTS (any state may move to ERR, and ERR→RESET
// recycles the QP).
func (q *QP) Modify(next QPState) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if next == StateErr {
		q.state = StateErr
		return nil
	}
	legal := map[QPState]QPState{
		StateInit:  StateReset,
		StateRTR:   StateInit,
		StateRTS:   StateRTR,
		StateReset: StateErr,
	}
	if want, ok := legal[next]; !ok || q.state != want {
		return ErrBadState
	}
	q.state = next
	return nil
}

// setRemote wires the RC peer (connection-manager internal).
func (q *QP) setRemote(peer *QP) {
	q.mu.Lock()
	q.remote = peer
	q.mu.Unlock()
}

// Remote reports the connected peer QP, or nil.
func (q *QP) Remote() *QP {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remote
}

// PostRecv posts a receive buffer. The QP must be at least INIT. With an
// SRQ attached, receives must be posted to the SRQ instead.
func (q *QP) PostRecv(wr RecvWR) error {
	if q.srq != nil {
		return q.srq.Post(wr)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state == StateReset || q.state == StateErr {
		return ErrBadState
	}
	q.recvq = append(q.recvq, wr)
	return nil
}

// RecvQueueLen reports posted, unconsumed receive buffers.
func (q *QP) RecvQueueLen() int {
	if q.srq != nil {
		return q.srq.Len()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.recvq)
}

// popRecv takes the oldest posted receive buffer.
func (q *QP) popRecv() (RecvWR, bool) {
	if q.srq != nil {
		return q.srq.pop()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.recvq) == 0 {
		return RecvWR{}, false
	}
	wr := q.recvq[0]
	q.recvq = q.recvq[1:]
	return wr, true
}

// Destroy errors the QP, flushes posted receives as StatusFlushed
// completions, and releases the QP number.
func (q *QP) Destroy() {
	q.mu.Lock()
	q.state = StateErr
	pending := q.recvq
	q.recvq = nil
	q.mu.Unlock()
	for _, wr := range pending {
		q.recvCQ.post(WC{ID: wr.ID, Op: OpRecv, Status: StatusFlushed, QPN: q.qpn})
	}
	q.hca.unregisterQP(q.qpn)
}

// PostSend posts a send-side work request. The posting cost is charged
// to clk; the outcome is reported asynchronously on the send CQ (like
// real verbs, transport errors surface as completion statuses, not as a
// PostSend error — PostSend errors only for caller mistakes).
func (q *QP) PostSend(clk *simnet.VClock, wr SendWR) error {
	remote, err := q.postCharge(clk, 1)
	if err != nil {
		return err
	}
	return q.dispatchSend(clk, wr, remote)
}

// PostSendN posts a burst of work requests with a single doorbell ring:
// the first WR pays the full PostOverhead, every further one only the
// coalesced WQE-build cost. A burst of one charges exactly what PostSend
// does. Like real verbs list posting, the burst stops at the first bad
// WR and the error names it; the completions of already-accepted WRs
// still arrive on the CQ.
func (q *QP) PostSendN(clk *simnet.VClock, wrs []SendWR) error {
	if len(wrs) == 0 {
		return nil
	}
	remote, err := q.postCharge(clk, len(wrs))
	if err != nil {
		return err
	}
	for i := range wrs {
		if err := q.dispatchSend(clk, wrs[i], remote); err != nil {
			return err
		}
	}
	return nil
}

// postCharge validates QP state and charges the doorbell cost for a
// burst of n WRs (one full PostOverhead plus n-1 coalesced builds).
func (q *QP) postCharge(clk *simnet.VClock, n int) (*QP, error) {
	q.mu.Lock()
	state := q.state
	remote := q.remote
	q.mu.Unlock()
	if state != StateRTS {
		return nil, ErrBadState
	}
	clk.Advance(q.hca.cfg.PostOverhead)
	if n > 1 {
		clk.Advance(simnet.Duration(n-1) * q.hca.cfg.CoalescedPostOverhead)
	}
	return remote, nil
}

// dispatchSend routes one already-charged WR into the transport.
func (q *QP) dispatchSend(clk *simnet.VClock, wr SendWR, remote *QP) error {
	switch wr.Op {
	case OpSend:
		return q.postSendMsg(clk, wr, remote)
	case OpRDMARead:
		return q.postRDMARead(clk, wr, remote)
	case OpRDMAWrite:
		return q.postRDMAWrite(clk, wr, remote)
	default:
		return ErrBadState
	}
}

// resolveDest picks the destination QP for a send.
func (q *QP) resolveDest(wr SendWR, remote *QP) (*QP, error) {
	if q.typ == UD {
		if wr.Dest == nil || wr.Dest.Target == nil {
			return nil, ErrNoAddress
		}
		dst, ok := wr.Dest.Target.lookupQP(wr.Dest.QPN)
		if !ok {
			return nil, nil // datagram to nowhere: silently lost
		}
		return dst, nil
	}
	if remote == nil {
		return nil, ErrNotConnected
	}
	return remote, nil
}

// transmit pushes bytes from src's node to dst's node through the
// fabric's fault model, retransmitting on loss for RC transports.
//
// On a lossless fabric (no injector installed) the first iteration
// returns immediately with exactly the plain-Deliver arrival time, so
// the retry machinery costs nothing when disabled. On loss, an RC
// sender waits AckTimeout for the missing ACK and retransmits, up to
// RetryCount times; exhaustion reports StatusRetryExceeded. UD loss is
// silent: the datagram is gone and delivered=false with StatusSuccess,
// like real fire-and-forget datagrams.
func (q *QP) transmit(src, dst *HCA, at simnet.Time, bytes int) (arrive simnet.Time, delivered bool, st Status) {
	cfg := q.hca.cfg
	for attempt := 0; ; attempt++ {
		arr, outcome, derr := src.fabric.DeliverFaulty(src.node, dst.node, at, bytes)
		if derr != nil {
			if q.typ == UD {
				return at, false, StatusSuccess
			}
			return at, false, StatusTransportError
		}
		if outcome == simnet.Delivered {
			return arr, true, StatusSuccess
		}
		if q.typ == UD {
			return arr, false, StatusSuccess
		}
		if attempt >= cfg.RetryCount {
			return arr, false, StatusRetryExceeded
		}
		q.hca.noteRetransmit()
		at = arr + cfg.AckTimeout
	}
}

// postSendMsg implements the two-sided SEND.
func (q *QP) postSendMsg(clk *simnet.VClock, wr SendWR, remote *QP) error {
	cfg := q.hca.cfg
	n := len(wr.Local)
	if wr.Inline && n > cfg.InlineMax {
		return ErrInlineLimit
	}
	if q.typ == UD && n > cfg.MTU {
		return ErrTooLarge
	}

	dst, err := q.resolveDest(wr, remote)
	if err != nil {
		return err
	}

	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc

	if dst == nil { // UD datagram to an unknown QP
		q.sendCQ.post(WC{ID: wr.ID, Op: OpSend, Status: StatusSuccess, ByteLen: n, QPN: q.qpn, Time: depart})
		return nil
	}

	arrive, delivered, st := q.transmit(q.hca, dst.hca, depart, wireBytes(n, cfg))
	if !delivered {
		if st == StatusRetryExceeded {
			// IB semantics: retry exhaustion is fatal to the connection.
			q.Modify(StateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpSend, Status: st, ByteLen: n, QPN: q.qpn, Time: depart})
		return nil
	}

	// The payload is copied now (sender goroutine acts as the DMA
	// engine); the stamp says when it becomes visible.
	rstatus, rtime, rwc, rpost := dst.receive(wr.Local, wr.Imm, q.qpn, arrive)

	// RNR retry: a reliable sender re-offers the message after the
	// receiver reported no posted buffer, waiting RNRTimer between
	// attempts (IB rnr_retry). Disabled when RNRRetry is 0.
	for rnr := 0; q.typ == RC && rstatus == StatusRNRRetryExceeded && rnr < cfg.RNRRetry; rnr++ {
		q.hca.noteRetransmit()
		a2, d2, s2 := q.transmit(q.hca, dst.hca, rtime+cfg.RNRTimer, wireBytes(n, cfg))
		if !d2 {
			rstatus, rtime = s2, rtime+cfg.RNRTimer
			break
		}
		rstatus, rtime, rwc, rpost = dst.receive(wr.Local, wr.Imm, q.qpn, a2)
	}

	// Local completion: for an inline or buffered send the origin buffer
	// is reusable as soon as the HCA has consumed it.
	localStatus := StatusSuccess
	localTime := depart
	if q.typ == RC && rstatus != StatusSuccess {
		// Reliable transport reflects the remote failure to the sender
		// (RNR retries exhausted / remote length error).
		localStatus = rstatus
		localTime = rtime
		if rstatus == StatusRetryExceeded {
			q.Modify(StateErr)
		}
	}
	// The local completion is posted before the remote one: once the
	// receiver can see the message it may answer at once, and a reply
	// that overtook this completion in the sender's CQ would make the
	// harvest order — and so the virtual timing — depend on goroutine
	// scheduling.
	q.sendCQ.post(WC{ID: wr.ID, Op: OpSend, Status: localStatus, ByteLen: n, QPN: q.qpn, Time: localTime})
	if rpost {
		dst.recvCQ.post(rwc)
	}
	return nil
}

// receive consumes a posted receive buffer for an incoming SEND. It
// returns the receive completion the message produced (post=false when
// none) for the sender to post once its own completion is queued.
func (q *QP) receive(payload []byte, imm uint32, srcQPN uint32, arrive simnet.Time) (st Status, at simnet.Time, wc WC, post bool) {
	cfg := q.hca.cfg
	q.mu.Lock()
	state := q.state
	q.mu.Unlock()
	if state != StateRTR && state != StateRTS {
		return StatusRemoteError, arrive, WC{}, false
	}
	wr, ok := q.popRecv()
	if !ok {
		if q.typ == UD {
			return StatusSuccess, arrive, WC{}, false // dropped on the floor
		}
		return StatusRNRRetryExceeded, arrive, WC{}, false
	}
	if len(wr.Buf) < len(payload) {
		wc = WC{ID: wr.ID, Op: OpRecv, Status: StatusRemoteError, QPN: q.qpn, SrcQPN: srcQPN, Time: arrive}
		return StatusRemoteError, arrive, wc, true
	}
	copy(wr.Buf, payload)
	placed := q.hca.recvEngine.Acquire(arrive, cfg.RecvProc) + cfg.RecvProc
	wc = WC{
		ID: wr.ID, Op: OpRecv, Status: StatusSuccess,
		ByteLen: len(payload), Imm: imm, QPN: q.qpn, SrcQPN: srcQPN, Time: placed,
	}
	return StatusSuccess, placed, wc, true
}

// rdmaPeer validates the one-sided preconditions and returns the target.
func (q *QP) rdmaPeer(remote *QP) (*QP, error) {
	if q.typ != RC {
		return nil, ErrBadState // one-sided ops require a connected QP
	}
	if remote == nil {
		return nil, ErrNotConnected
	}
	return remote, nil
}

// postRDMARead pulls remote memory into wr.Local with no remote software
// involvement — the mechanism UCR uses to fetch large active-message
// payloads (paper §IV-B).
func (q *QP) postRDMARead(clk *simnet.VClock, wr SendWR, remote *QP) error {
	cfg := q.hca.cfg
	dst, err := q.rdmaPeer(remote)
	if err != nil {
		return err
	}
	n := len(wr.Local)

	// Request packet to the target.
	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc
	reqArrive, delivered, st := q.transmit(q.hca, dst.hca, depart, cfg.HeaderBytes)
	if !delivered {
		if st == StatusRetryExceeded {
			q.Modify(StateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: st, QPN: q.qpn, Time: depart})
		return nil
	}

	// Target HCA serves the read from registered memory.
	src, ok := dst.hca.lookupMR(wr.RKey)
	if !ok {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: StatusRemoteError, QPN: q.qpn, Time: reqArrive})
		return nil
	}
	data, rerr := src.rdmaRange(wr.RemoteAddr, n)
	if rerr != nil {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: StatusRemoteError, QPN: q.qpn, Time: reqArrive})
		return nil
	}

	respStart := dst.hca.sendEngine.Acquire(reqArrive, cfg.RDMAProc)
	respDepart := respStart + cfg.RDMAProc
	respArrive, delivered, st := q.transmit(dst.hca, q.hca, respDepart, wireBytes(n, cfg))
	if !delivered {
		if st == StatusRetryExceeded {
			q.Modify(StateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: st, QPN: q.qpn, Time: respDepart})
		return nil
	}
	guardedCopy(wr.Local, data, q.hca.MemGuard(), dst.hca.MemGuard())
	done := q.hca.recvEngine.Acquire(respArrive, cfg.RecvProc) + cfg.RecvProc
	q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: StatusSuccess, ByteLen: n, QPN: q.qpn, Time: done})
	return nil
}

// postRDMAWrite pushes wr.Local (followed by the optional wr.Local2
// gather segment) into remote memory. The two segments travel as one
// wire transaction and land contiguously at RemoteAddr — a two-SGE WQE.
func (q *QP) postRDMAWrite(clk *simnet.VClock, wr SendWR, remote *QP) error {
	cfg := q.hca.cfg
	dst, err := q.rdmaPeer(remote)
	if err != nil {
		return err
	}
	n := len(wr.Local) + len(wr.Local2)

	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc
	arrive, delivered, st := q.transmit(q.hca, dst.hca, depart, wireBytes(n, cfg))
	if !delivered {
		if st == StatusRetryExceeded {
			q.Modify(StateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: st, QPN: q.qpn, Time: depart})
		return nil
	}
	tgt, ok := dst.hca.lookupMR(wr.RKey)
	if !ok {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: StatusRemoteError, QPN: q.qpn, Time: arrive})
		return nil
	}
	room, rerr := tgt.rdmaRange(wr.RemoteAddr, n)
	if rerr != nil {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: StatusRemoteError, QPN: q.qpn, Time: arrive})
		return nil
	}
	guardedCopy(room[:len(wr.Local)], wr.Local, dst.hca.MemGuard(), q.hca.MemGuard())
	if len(wr.Local2) > 0 {
		guardedCopy(room[len(wr.Local):], wr.Local2, dst.hca.MemGuard(), q.hca.MemGuard())
	}
	dst.hca.recvEngine.Acquire(arrive, cfg.RDMAProc)
	q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: StatusSuccess, ByteLen: n, QPN: q.qpn, Time: depart})
	return nil
}

// SRQ is a shared receive queue: one pool of posted buffers feeding many
// QPs, reducing per-connection buffer consumption (the scalability
// design reused from MVAPICH that the paper cites). The ring has a fixed
// capacity like a hardware SRQ: Post beyond it fails with ErrSRQFull,
// and an empty ring makes RC senders take the RNR retry path (receiver
// not ready) rather than dropping — the backpressure loop the shared-
// serving datapath leans on when a burst outruns the repost rate.
type SRQ struct {
	hca *HCA
	cap int
	mu  sync.Mutex
	q   []RecvWR
}

// DefaultSRQCap bounds an SRQ created without an explicit capacity.
const DefaultSRQCap = 4096

// CreateSRQ allocates a shared receive queue with the default capacity.
func (h *HCA) CreateSRQ() *SRQ { return h.CreateSRQSized(DefaultSRQCap) }

// CreateSRQSized allocates a shared receive queue holding at most cap
// posted buffers (cap <= 0 selects the default).
func (h *HCA) CreateSRQSized(cap int) *SRQ {
	if cap <= 0 {
		cap = DefaultSRQCap
	}
	return &SRQ{hca: h, cap: cap}
}

// Cap reports the ring capacity.
func (s *SRQ) Cap() int { return s.cap }

// Post adds a buffer to the shared pool; ErrSRQFull when the ring is at
// capacity (the work request is not queued).
func (s *SRQ) Post(wr RecvWR) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) >= s.cap {
		return ErrSRQFull
	}
	s.q = append(s.q, wr)
	return nil
}

// Len reports available buffers.
func (s *SRQ) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

func (s *SRQ) pop() (RecvWR, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) == 0 {
		return RecvWR{}, false
	}
	wr := s.q[0]
	s.q = s.q[1:]
	return wr, true
}
