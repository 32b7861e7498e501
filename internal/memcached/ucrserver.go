package memcached

import (
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// This file is the server half of the paper's §V design: Memcached
// operations carried as UCR active messages.
//
// Set (§V-B): the client's AM 1 carries the set header plus the item
// value. For large items the UCR rendezvous path has the *server* issue
// an RDMA Read — and because the Set header handler allocates the item
// first, the read lands the value directly in slab memory, no staging
// copy. AM 2 returns the status, targeting the client's counter C.
//
// Get (§V-C): AM 1 carries the key and counter C. The item length is
// unknown to the client beforehand; the server's AM 2 reply announces it,
// the client's header handler allocates (from its buffer pool), and the
// value travels eagerly (≤ 8 KB) or is RDMA-read by the client directly
// from the pinned item's slab memory.
//
// The steady-state GET/SET/MGET paths allocate nothing: request headers
// are decoded in place (the *View decoders), keys are hashed and
// compared as []byte straight out of the receive buffer, items come
// from per-shard free lists, and replies are built in per-worker arenas
// whose reuse rules are documented on the worker struct.

// setPending carries state between the Set header and completion
// handlers on one endpoint (FIFO; UCR delivers in order per endpoint).
type setPending struct {
	item     *Item
	res      StoreResult
	replyCtr ucr.CounterID
}

// workerFor resolves the worker owning an endpoint's progress context.
func (s *Server) workerFor(ep *ucr.Endpoint) *worker {
	return s.ctxOwner[ep.Context()]
}

// pendSet queues an in-flight Set state for ep on its worker.
func (w *worker) pendSet(ep *ucr.Endpoint, p setPending) {
	q := w.pendingSets[ep]
	if q == nil {
		q = &setPendQ{}
		w.pendingSets[ep] = q
	}
	q.push(p)
}

// scratchMax caps the landing and staging buffers a worker keeps
// between requests; one oversized request must not pin a max-item-size
// buffer per worker for the server's lifetime.
const scratchMax = 64 << 10

// pooledBuf returns buf resized to n, growing it up to scratchMax;
// requests beyond the cap get a one-off buffer that is not retained.
func pooledBuf(buf *[]byte, n int) []byte {
	if n > scratchMax {
		return make([]byte, n)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n, scratchMax)
	}
	return (*buf)[:n]
}

// scratchBuf returns a throwaway landing buffer used when item
// allocation failed but the transfer must still complete.
func (w *worker) scratchBuf(n int) []byte { return pooledBuf(&w.scratch, n) }

// storeBuf returns the eager conditional-store staging buffer. It is
// only safe for eager transfers: handleEager copies the value in and
// runs the completion handler synchronously, so the buffer is consumed
// before the worker touches another request. Rendezvous stores land via
// an asynchronous RDMA read and must use a fresh buffer.
func (w *worker) storeBuf(n int) []byte { return pooledBuf(&w.storeScratch, n) }

// opCharge charges the per-op command-processing cost. The 2nd..Nth
// completions harvested by one batched CQ drain pay the coalesced cost:
// their fixed per-op overheads (dispatch branch, cache warmup) amortize
// across the sweep. A lone completion always pays full OpCost.
func (s *Server) opCharge(clk *simnet.VClock, ep *ucr.Endpoint) {
	if ep.Context().InCoalescedDrain() {
		clk.Advance(s.cfg.CoalescedOpCost)
	} else {
		clk.Advance(s.cfg.OpCost)
	}
}

// chargeLock queues an AM completion handler behind the key's shard
// lock: the hold is the engine critical section (OpCost plus bytes
// copied while locked), and only the queueing wait advances the worker
// clock — the hold itself is covered by the per-op charges the worker
// already pays. Uncontended acquisitions cost nothing. The hold stays
// at full OpCost even in a coalesced drain: batching amortizes the
// worker's fixed costs, not the engine's critical section.
func (s *Server) chargeLock(clk *simnet.VClock, key string, copied int) {
	hold := s.cfg.OpCost + simnet.BytesDuration(copied, s.cfg.CopyBytesPerSec)
	if wait := s.store.LockWait(key, clk.Now(), hold); wait > 0 {
		clk.Advance(wait)
	}
}

// chargeLockBytes is chargeLock for wire-decoded keys.
func (s *Server) chargeLockBytes(clk *simnet.VClock, key []byte, copied int) {
	hold := s.cfg.OpCost + simnet.BytesDuration(copied, s.cfg.CopyBytesPerSec)
	if wait := s.store.LockWaitBytes(key, clk.Now(), hold); wait > 0 {
		clk.Advance(wait)
	}
}

// nilHeader is the header handler for AMs whose data block is empty.
func nilHeader(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return nil }

// registerAMHandlers installs the §V protocol on the runtime.
func (s *Server) registerAMHandlers(rt *ucr.Runtime) {
	rt.RegisterHandler(AMSet, ucr.Handler{
		Header:     s.amSetHeader,
		Completion: s.amSetComplete,
	})
	rt.RegisterHandler(AMGet, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amGetComplete,
	})
	rt.RegisterHandler(AMGetW, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amGetWComplete,
	})
	rt.RegisterHandler(AMMGet, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amMGetComplete,
	})
	rt.RegisterHandler(AMMGetW, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amMGetWComplete,
	})
	rt.RegisterHandler(AMWrArm, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amWrArmComplete,
	})
	rt.RegisterHandler(AMStore, ucr.Handler{
		Header:     s.amStoreHeader,
		Completion: s.amStoreComplete,
	})
	rt.RegisterHandler(AMDelete, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amDeleteComplete,
	})
	rt.RegisterHandler(AMOSDesc, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amOSDescComplete,
	})
	rt.RegisterHandler(AMIncr, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amNumComplete(true),
	})
	rt.RegisterHandler(AMDecr, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amNumComplete(false),
	})
}

// amSetHeader identifies where the item will be stored — the paper's
// "identifies where it wants to store the item. Then, it issues an RDMA
// Read to that destination memory location" (§V-B).
func (s *Server) amSetHeader(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
	w := s.workerFor(ep)
	req, err := DecodeSetReqView(hdr)
	if err != nil {
		w.pendSet(ep, setPending{res: NotStored})
		return w.scratchBuf(dataLen)
	}
	it, res := s.store.AllocateItemBytes(req.Key, req.Flags, req.Exptime, dataLen, clk.Now())
	if res != Stored {
		w.pendSet(ep, setPending{res: res, replyCtr: req.ReplyCtr})
		return w.scratchBuf(dataLen)
	}
	w.pendSet(ep, setPending{item: it, res: Stored, replyCtr: req.ReplyCtr})
	return it.Value()
}

// amSetComplete commits the item and answers with AM 2 (§V-B).
func (s *Server) amSetComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	q := w.pendingSets[ep]
	if q == nil {
		return
	}
	p, ok := q.pop()
	if !ok {
		return
	}
	s.opCharge(clk, ep)
	status := AMOK
	if p.item != nil {
		// No copy extends the hold: the value already landed in slab
		// memory via RDMA before the commit takes the lock (§V-B).
		s.chargeLock(clk, p.item.Key(), 0)
		s.store.CommitItem(p.item, clk.Now())
	} else {
		status = AMError
	}
	s.OpsServed.Add(1)
	if p.replyCtr == 0 {
		return
	}
	w.reply = AppendStatusReply(w.reply[:0], StatusReply{Status: status, Result: p.res})
	_ = ep.Send(clk, AMSetReply, w.reply, nil, nil, p.replyCtr, nil)
}

// amGetComplete looks the item up and answers with AM 2 carrying the
// value (§V-C). Large values stay pinned in slab memory until the
// client's RDMA read completes (tracked by the reply's origin counter).
func (s *Server) amGetComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	req, err := DecodeKeyReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	s.OpsServed.Add(1)
	// The reply is served from the pinned item's slab memory, so no
	// copy extends the hold (§V-C).
	s.chargeLockBytes(clk, req.Key, 0)
	it, ok := s.store.GetPinnedBytes(req.Key, clk.Now())
	if !ok {
		w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMMiss})
		_ = ep.Send(clk, AMGetReply, w.reply, nil, nil, req.ReplyCtr, nil)
		return
	}
	w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMOK, Flags: it.Flags(), CAS: it.CAS()})
	if len(w.reply)+len(it.Value()) <= ep.MaxEager() {
		// Eager: the value is packed into the reply transaction; the
		// send path copies it out of slab memory, so unpin immediately.
		_ = ep.Send(clk, AMGetReply, w.reply, it.Value(), nil, req.ReplyCtr, nil)
		s.store.Unpin(it)
		return
	}
	if ep.Reliability() == ucr.Unreliable {
		// A value that outgrows the datagram cannot ride a UD endpoint
		// (no rendezvous on UD): answer with the status only, and the
		// client reports a server error rather than a miss.
		s.store.Unpin(it)
		w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMTooBig})
		_ = ep.Send(clk, AMGetReply, w.reply, nil, nil, req.ReplyCtr, nil)
		return
	}
	// Rendezvous: the client will RDMA-read straight from the item's
	// chunk. Keep it pinned until the transfer's origin counter fires
	// (directly addressing the corruption hazard the paper raises for
	// designs that let clients read server memory unsupervised, §III).
	ctr := s.ucrRT.NewCounter()
	if err := ep.Send(clk, AMGetReply, w.reply, it.Value(), ctr, req.ReplyCtr, nil); err != nil {
		s.store.Unpin(it)
		s.ucrRT.FreeCounter(ctr)
		return
	}
	w.pendingPins = append(w.pendingPins, pendingPin{ctr: ctr, item: it})
}

// amMGetComplete serves a whole key batch with one reply AM: per-item
// metadata in the header, the values concatenated as the data block
// (eager in one transaction when small, one client RDMA read when
// large). Keys are walked straight out of the receive buffer and the
// reply header is built in the worker's arena in the same pass.
func (s *Server) amMGetComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	replyCtr, cur, err := NewMGetKeyCursor(hdr)
	if err != nil {
		return
	}
	items := w.mgetItems[:0]
	w.reply = BeginMGetReply(w.reply[:0])
	total, found := 0, 0
	for {
		key, ok := cur.Next()
		if !ok {
			break
		}
		s.opCharge(clk, ep)
		s.OpsServed.Add(1)
		s.chargeLockBytes(clk, key, 0)
		it, hit := s.store.GetPinnedBytes(key, clk.Now())
		if !hit {
			continue
		}
		w.reply = AppendMGetReplyItem(w.reply, key, it.Flags(), it.CAS(), len(it.Value()))
		items = append(items, it)
		total += len(it.Value())
		found++
	}
	FinishMGetReply(w.reply, 0, found)
	release := func() {
		for i, it := range items {
			s.store.Unpin(it)
			items[i] = nil
		}
		w.mgetItems = items[:0]
	}
	if ep.Reliability() == ucr.Unreliable && len(w.reply)+total > ep.MaxEager() {
		// The batch outgrew the datagram. Release the pins and send the
		// payload-free marker; the client reports a server error.
		release()
		_ = ep.Send(clk, AMMGetRetry, nil, nil, nil, replyCtr, nil)
		return
	}
	// Assemble the concatenated block in one pre-sized copy straight out
	// of the pinned slab chunks; the pins also keep eviction from
	// recycling a chunk between lookup and copy. An eager reply is
	// packed into the send buffer synchronously, so the worker's value
	// arena can stage it; a rendezvous reply is RDMA-read by the client
	// later and needs a buffer of its own.
	var values []byte
	if len(w.reply)+total <= ep.MaxEager() {
		if cap(w.vals) < total {
			w.vals = make([]byte, 0, total)
		}
		values = w.vals[:0]
	} else {
		values = make([]byte, 0, total)
	}
	for _, it := range items {
		values = append(values, it.Value()...)
	}
	release()
	clk.Advance(simnet.BytesDuration(len(values), s.ucrRT.Config().PackBytesPerSec))
	_ = ep.Send(clk, AMMGetReply, w.reply, values, nil, replyCtr, nil)
}

// amStoreHeader stages the incoming value for a conditional store. The
// value lands in a plain buffer, not slab memory: whether a conditional
// store allocates at all is decided under the shard lock in the
// completion handler. Eager transfers reuse the worker's staging arena;
// rendezvous transfers get a fresh buffer (the RDMA read that fills it
// completes asynchronously).
func (s *Server) amStoreHeader(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
	if len(hdr)+dataLen <= ep.MaxEager() {
		return s.workerFor(ep).storeBuf(dataLen)
	}
	return make([]byte, dataLen)
}

// amStoreComplete serves the conditional storage commands. The value
// copy into the slab happens under the lock (like the sockets path, and
// unlike AMSet's RDMA-lands-first fast path), so it extends the hold.
func (s *Server) amStoreComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	req, err := DecodeStoreReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	s.OpsServed.Add(1)
	s.chargeLockBytes(clk, req.Key, len(data))
	now := clk.Now()
	key := string(req.Key)
	var res StoreResult
	switch req.Op {
	case StoreOpAdd:
		res = s.store.Add(key, req.Flags, req.Exptime, data, now)
	case StoreOpReplace:
		res = s.store.Replace(key, req.Flags, req.Exptime, data, now)
	case StoreOpAppend:
		res = s.store.Append(key, data, now)
	case StoreOpPrepend:
		res = s.store.Prepend(key, data, now)
	case StoreOpCas:
		res = s.store.Cas(key, req.Flags, req.Exptime, data, req.CAS, now)
	default:
		res = NotStored
	}
	if req.ReplyCtr == 0 {
		return
	}
	status := AMOK
	if res != Stored {
		status = AMError
	}
	w.reply = AppendStatusReply(w.reply[:0], StatusReply{Status: status, Result: res})
	_ = ep.Send(clk, AMSetReply, w.reply, nil, nil, req.ReplyCtr, nil)
}

// amOSDescComplete answers the one-sided descriptor query: whether the
// index is armed and, if so, the directory's geometry and window.
func (s *Server) amOSDescComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	req, err := DecodeKeyReq(hdr)
	if err != nil {
		return
	}
	var rep OSDescReply
	if x := s.store.OneSidedIndex(); x != nil {
		rep = OSDescReply{Enabled: true, Buckets: x.Buckets(), Slots: x.Slots(), Dir: x.DirDesc()}
	}
	_ = ep.Send(clk, AMOSDescReply, EncodeOSDescReply(rep), nil, nil, req.ReplyCtr, nil)
}

// amDeleteComplete serves delete.
func (s *Server) amDeleteComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	req, err := DecodeKeyReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	s.OpsServed.Add(1)
	s.chargeLockBytes(clk, req.Key, 0)
	status := AMMiss
	if s.store.Delete(string(req.Key), clk.Now()) {
		status = AMOK
	}
	w.reply = AppendStatusReply(w.reply[:0], StatusReply{Status: status})
	_ = ep.Send(clk, AMDeleteReply, w.reply, nil, nil, req.ReplyCtr, nil)
}

// amNumComplete serves incr/decr.
func (s *Server) amNumComplete(incr bool) ucr.CompletionHandler {
	return func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
		w := s.workerFor(ep)
		req, err := DecodeNumReq(hdr)
		if err != nil {
			return
		}
		s.opCharge(clk, ep)
		s.OpsServed.Add(1)
		s.chargeLock(clk, req.Key, 0)
		val, found, bad, oom := s.store.IncrDecr(req.Key, req.Delta, incr, clk.Now())
		status := AMOK
		switch {
		case !found:
			status = AMMiss
		case bad:
			status = AMBadValue
		case oom:
			status = AMError
		}
		w.reply = AppendNumReply(w.reply[:0], NumReply{Status: status, Value: val})
		_ = ep.Send(clk, AMNumReply, w.reply, nil, nil, req.ReplyCtr, nil)
	}
}
