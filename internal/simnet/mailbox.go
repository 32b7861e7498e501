package simnet

import (
	"sync"
	"sync/atomic"
	"time"
)

// Mailbox is an unbounded, closeable queue of timestamped messages. It is
// the delivery mechanism shared by the transport layers: the sender
// computes an arrival stamp with Fabric.Deliver and posts the real payload
// here; the receiver blocks until something is present and then advances
// its virtual clock to the stamp.
//
// The queue is unbounded on purpose: back-pressure in the simulated
// system is modelled explicitly (verbs receive queues, UCR credits,
// socket windows), not by accidental blocking of the in-process plumbing.
//
// Storage is a head-indexed ring so a steady-state producer/consumer pair
// never reallocates: the hot serving paths (CQ drains, socket segments)
// cycle through the same backing array instead of re-growing an
// append-and-reslice queue.
type Mailbox[T any] struct {
	mu     sync.Mutex
	buf    []T // ring storage; len(buf) is the capacity
	head   int // index of the oldest queued message
	n      int // queued message count
	closed bool
	notify chan struct{}          // capacity 1, poked on every state change
	hook   atomic.Pointer[func()] // optional, invoked after every poke (see SetNotifyHook)
	timer  *time.Timer            // pooled deadline timer for RecvTimeout (receiver-owned)
}

// NewMailbox returns an empty open mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	return &Mailbox[T]{notify: make(chan struct{}, 1)}
}

func (m *Mailbox[T]) poke() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
	if h := m.hook.Load(); h != nil {
		(*h)()
	}
}

// NotifyC exposes the mailbox's readiness channel so a receiver can park
// on several event sources at once (select over many mailboxes). The
// channel holds at most one token; a token means "state changed since you
// last looked", so after receiving one the owner must drain with TryRecv
// until empty. Spurious tokens are possible and harmless. Only the single
// receiver may take from this channel.
func (m *Mailbox[T]) NotifyC() <-chan struct{} { return m.notify }

// SetNotifyHook installs fn to be called after every poke (Put, PutFront,
// Close), from the goroutine that caused the state change and outside the
// mailbox lock. Event-loop owners use it to enqueue "this source is ready"
// onto their own run queue without dedicating a waker goroutine per
// source. The installer must immediately re-check the mailbox itself:
// pokes that happened before installation did not run the hook. fn must
// be cheap and must not call back into the mailbox.
func (m *Mailbox[T]) SetNotifyHook(fn func()) {
	if fn == nil {
		m.hook.Store(nil)
		return
	}
	m.hook.Store(&fn)
}

// grow doubles the ring (called with mu held, when full).
func (m *Mailbox[T]) grow() {
	newCap := len(m.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	nb := make([]T, newCap)
	for i := 0; i < m.n; i++ {
		nb[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf = nb
	m.head = 0
}

// Put appends a message. Putting to a closed mailbox is a silent no-op
// (the peer went away; the bytes fall on the floor, as on a real wire).
func (m *Mailbox[T]) Put(msg T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.n == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.n)%len(m.buf)] = msg
	m.n++
	m.mu.Unlock()
	m.poke()
}

// PutAll appends msgs as one step: a receiver sees none of them or all
// of them, never a prefix. A sender that emits several messages for one
// logical write uses it so what the receiver harvests in one wakeup
// does not depend on goroutine scheduling. Putting to a closed mailbox
// is a silent no-op.
func (m *Mailbox[T]) PutAll(msgs []T) {
	if len(msgs) == 0 {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	for _, msg := range msgs {
		if m.n == len(m.buf) {
			m.grow()
		}
		m.buf[(m.head+m.n)%len(m.buf)] = msg
		m.n++
	}
	m.mu.Unlock()
	m.poke()
}

// PutFront pushes a message back to the head of the queue. Receivers use
// it to undo a TryRecv/Recv they were not yet entitled to (e.g. a segment
// whose virtual arrival lies beyond the reader's deadline) without
// scrambling FIFO order. Putting to a closed mailbox is a no-op.
func (m *Mailbox[T]) PutFront(msg T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.n == len(m.buf) {
		m.grow()
	}
	m.head--
	if m.head < 0 {
		m.head = len(m.buf) - 1
	}
	m.buf[m.head] = msg
	m.n++
	m.mu.Unlock()
	m.poke()
}

// TryRecv removes the head message if one is present.
// ok=false means empty; closed reports whether the mailbox is closed.
func (m *Mailbox[T]) TryRecv() (msg T, ok, closed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n > 0 {
		msg = m.buf[m.head]
		// Avoid retaining the element.
		var zero T
		m.buf[m.head] = zero
		m.head = (m.head + 1) % len(m.buf)
		m.n--
		return msg, true, m.closed
	}
	return msg, false, m.closed
}

// Recv blocks until a message is available or the mailbox is closed and
// drained. ok=false means closed-and-empty.
func (m *Mailbox[T]) Recv() (msg T, ok bool) {
	for {
		msg, got, closed := m.TryRecv()
		if got {
			return msg, true
		}
		if closed {
			return msg, false
		}
		<-m.notify
	}
}

// RecvTimeout is Recv with a real-time cap, used only on failure paths:
// if the peer is dead nothing will ever arrive, and virtual time cannot
// advance by itself. ok=false with timedOut=true reports the cap fired.
// The deadline timer is pooled on the mailbox (there is exactly one
// receiver), so steady-state timed waits do not allocate.
func (m *Mailbox[T]) RecvTimeout(d time.Duration) (msg T, ok, timedOut bool) {
	// Fast path: something is already queued (or the box is closed) — no
	// timer needed at all.
	msg, got, closed := m.TryRecv()
	if got {
		return msg, true, false
	}
	if closed {
		return msg, false, false
	}
	deadline := m.armTimer(d)
	defer m.disarmTimer()
	for {
		msg, got, closed = m.TryRecv()
		if got {
			return msg, true, false
		}
		if closed {
			return msg, false, false
		}
		select {
		case <-m.notify:
		case <-deadline:
			return msg, false, true
		}
	}
}

// armTimer readies the pooled receiver-side timer for one RecvTimeout
// call and returns its channel.
func (m *Mailbox[T]) armTimer(d time.Duration) <-chan time.Time {
	if m.timer == nil {
		m.timer = time.NewTimer(d)
		return m.timer.C
	}
	m.timer.Reset(d)
	return m.timer.C
}

// disarmTimer stops the pooled timer and drains a stale expiry so the
// next arm starts clean.
func (m *Mailbox[T]) disarmTimer() {
	if !m.timer.Stop() {
		select {
		case <-m.timer.C:
		default:
		}
	}
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Close marks the mailbox closed and wakes all waiters. Queued messages
// remain receivable.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	// The notify channel is never closed (a racing Put's poke must stay
	// safe); a single poke wakes the receiver, which observes the closed
	// flag through TryRecv. Mailboxes have exactly one receiver.
	m.poke()
}

// Closed reports whether Close has been called.
func (m *Mailbox[T]) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}
