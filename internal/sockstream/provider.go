// Package sockstream implements byte-stream sockets over the simulated
// fabrics — the transports the paper runs *unmodified* Memcached on:
// kernel TCP/IP over 1GigE, hardware-offloaded TCP (TOE) over 10GigE,
// IP-over-InfiniBand (IPoIB), and the Sockets Direct Protocol (SDP).
//
// Each provider is a cost model for the same stream machinery. The
// knobs capture the effects the paper attributes the sockets penalty to:
// per-call syscall/interrupt overheads (no OS bypass), intermediate
// memory copies (byte-stream vs memory semantics), per-segment protocol
// processing, and — for SDP on QDR — the jitter the authors observed
// and could not eliminate (§VI-B).
package sockstream

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
)

// Provider is one socket stack: a fabric plus the software cost model
// layered over it.
type Provider struct {
	// Name identifies the stack ("1GigE", "10GigE-TOE", "IPoIB", "SDP").
	Name string
	// Fabric carries the bytes.
	Fabric *simnet.Fabric

	// SendSyscall is charged once per Write call (send(2) entry, or the
	// lighter doorbell for offloaded stacks). It occupies the calling
	// thread.
	SendSyscall simnet.Duration
	// SendDeferred is transmit-path kernel work that happens after the
	// syscall returns (softirq / NIC queueing on another core): it delays
	// the segment but does not occupy the caller.
	SendDeferred simnet.Duration
	// RecvSyscall is charged once per Read call that has to take data
	// from the network (recv(2) entry and wakeup). It occupies the
	// reading thread.
	RecvSyscall simnet.Duration
	// RecvDeferred is receive-path kernel work done in interrupt context
	// on arrival (protocol processing in softirq): it delays delivery but
	// does not occupy the reader — which is why a kernel stack's latency
	// penalty is bigger than its throughput penalty.
	RecvDeferred simnet.Duration
	// SendCopies / RecvCopies count intermediate memory copies per byte
	// on each side (kernel TCP: user→skb and skb→NIC, etc.).
	SendCopies int
	RecvCopies int
	// CopyBytesPerSec is memcpy bandwidth for those copies.
	CopyBytesPerSec float64
	// SegmentSize is the MSS / SDP private-buffer size.
	SegmentSize int
	// PerSegment is protocol processing per emitted segment.
	PerSegment simnet.Duration
	// WireHeader is per-segment on-wire framing overhead in bytes.
	WireHeader int
	// ConnSetup is extra handshake cost charged to the dialer.
	ConnSetup simnet.Duration
	// NagleDelay delays small segments when TCP_NODELAY is off
	// (the paper sets MEMCACHED_BEHAVIOR_TCP_NODELAY=1 to avoid it).
	NagleDelay simnet.Duration
	// Jitter, if set, returns an extra per-segment delay (SDP on QDR).
	Jitter func(*simnet.Rand) simnet.Duration
	// RTOMin is the stack's minimum retransmission timeout: how long a
	// lost segment waits before its first retransmission (Linux TCP
	// floors this at 200 ms, which is why loss devastates kernel-stack
	// tail latency). Doubles per retry (exponential backoff).
	RTOMin simnet.Duration
	// RTORetries bounds retransmission attempts per segment before the
	// connection is declared unreachable.
	RTORetries int

	retransmits atomic.Uint64

	mu        sync.Mutex
	listeners map[string]*simnet.Mailbox[*dialReq]
}

// Stream errors.
var (
	ErrClosed      = errors.New("sockstream: connection closed")
	ErrRefusedConn = errors.New("sockstream: connection refused")
	ErrDialTimeout = errors.New("sockstream: dial timed out")
	ErrReadTimeout = errors.New("sockstream: read timed out")
	ErrUnreachable = errors.New("sockstream: peer unreachable")
)

func (p *Provider) init() {
	if p.SegmentSize <= 0 {
		p.SegmentSize = 1460
	}
	if p.CopyBytesPerSec <= 0 {
		p.CopyBytesPerSec = 4e9
	}
	if p.RTOMin <= 0 {
		p.RTOMin = 200 * simnet.Millisecond // Linux TCP_RTO_MIN
	}
	if p.RTORetries <= 0 {
		p.RTORetries = 8
	}
	if p.listeners == nil {
		p.listeners = make(map[string]*simnet.Mailbox[*dialReq])
	}
}

// Retransmits reports how many segments this provider's connections
// have retransmitted (both directions share the provider's counter).
func (p *Provider) Retransmits() uint64 { return p.retransmits.Load() }

func (p *Provider) String() string { return fmt.Sprintf("Provider(%s)", p.Name) }

// Clone returns a fresh provider with the same cost model, seated on
// fab, with its own (empty) listener table. Profiles are shared
// templates; deployments clone them.
func (p *Provider) Clone(fab *simnet.Fabric) *Provider {
	return &Provider{
		Name:            p.Name,
		Fabric:          fab,
		SendSyscall:     p.SendSyscall,
		SendDeferred:    p.SendDeferred,
		RecvSyscall:     p.RecvSyscall,
		RecvDeferred:    p.RecvDeferred,
		SendCopies:      p.SendCopies,
		RecvCopies:      p.RecvCopies,
		CopyBytesPerSec: p.CopyBytesPerSec,
		SegmentSize:     p.SegmentSize,
		PerSegment:      p.PerSegment,
		WireHeader:      p.WireHeader,
		ConnSetup:       p.ConnSetup,
		NagleDelay:      p.NagleDelay,
		Jitter:          p.Jitter,
		RTOMin:          p.RTOMin,
		RTORetries:      p.RTORetries,
	}
}

// segment is one unit in flight.
type segment struct {
	data   []byte
	arrive simnet.Time
}

type dialReq struct {
	remote *endpoint // dialer's endpoint
	arrive simnet.Time
	reply  *simnet.Mailbox[dialReply]
}

type dialReply struct {
	remote *endpoint
	sentAt simnet.Time
	err    error
}

// Listener accepts stream connections for a service.
type Listener struct {
	p       *Provider
	node    *simnet.Node
	service string
	queue   *simnet.Mailbox[*dialReq]
}

// Listen binds a service name on a node.
func (p *Provider) Listen(node *simnet.Node, service string) (*Listener, error) {
	p.init()
	key := node.Name() + "/" + service
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.listeners[key]; dup {
		return nil, fmt.Errorf("sockstream: %s already bound on %s", service, node.Name())
	}
	q := simnet.NewMailbox[*dialReq]()
	p.listeners[key] = q
	return &Listener{p: p, node: node, service: service, queue: q}, nil
}

// Accept blocks for the next connection; clk is synchronized with the
// SYN's arrival. ok=false means the listener is closed.
func (l *Listener) Accept(clk *simnet.VClock) (*Conn, bool) {
	req, ok := l.queue.Recv()
	if !ok {
		return nil, false
	}
	return l.complete(req, clk), true
}

// AcceptTimeout is Accept with a real-time cap for shutdown paths.
func (l *Listener) AcceptTimeout(clk *simnet.VClock, realCap time.Duration) (*Conn, bool) {
	req, ok, _ := l.queue.RecvTimeout(realCap)
	if !ok {
		return nil, false
	}
	return l.complete(req, clk), true
}

func (l *Listener) complete(req *dialReq, clk *simnet.VClock) *Conn {
	clk.AdvanceTo(req.arrive)
	local := newEndpoint(l.p, l.node)
	local.peer = req.remote
	req.remote.peer = local
	req.reply.Put(dialReply{remote: local, sentAt: clk.Now()})
	return &Conn{ep: local, clk: clk}
}

// Close unbinds the service and wakes pending Accepts.
func (l *Listener) Close() {
	key := l.node.Name() + "/" + l.service
	l.p.mu.Lock()
	delete(l.p.listeners, key)
	l.p.mu.Unlock()
	l.queue.Close()
}

// Dial connects from a node to a service on a remote node. The SYN/ACK
// round trip plus ConnSetup is charged to clk. realCap bounds the wait
// in real time (it fires only if the acceptor never comes).
func (p *Provider) Dial(from, to *simnet.Node, service string, clk *simnet.VClock, realCap time.Duration) (*Conn, error) {
	p.init()
	key := to.Name() + "/" + service
	p.mu.Lock()
	q := p.listeners[key]
	p.mu.Unlock()
	if q == nil {
		return nil, ErrRefusedConn
	}
	arrive, err := p.Fabric.Deliver(from, to, clk.Now(), 64+p.WireHeader)
	if err != nil {
		return nil, ErrUnreachable
	}
	local := newEndpoint(p, from)
	req := &dialReq{remote: local, arrive: arrive, reply: simnet.NewMailbox[dialReply]()}
	q.Put(req)
	rep, ok, timedOut := req.reply.RecvTimeout(realCap)
	if timedOut {
		return nil, ErrDialTimeout
	}
	if !ok {
		return nil, ErrRefusedConn
	}
	if rep.err != nil {
		return nil, rep.err
	}
	back, err := p.Fabric.Deliver(to, from, rep.sentAt, 64+p.WireHeader)
	if err != nil {
		return nil, ErrUnreachable
	}
	clk.AdvanceTo(back)
	clk.Advance(p.ConnSetup)
	return &Conn{ep: local, clk: clk}, nil
}

// endpoint is one half of a connection.
type endpoint struct {
	p    *Provider
	node *simnet.Node
	in   *simnet.Mailbox[segment]
	rng  *simnet.Rand

	mu     sync.Mutex
	peer   *endpoint
	closed bool
}

var endpointSeed struct {
	sync.Mutex
	n uint64
}

func newEndpoint(p *Provider, node *simnet.Node) *endpoint {
	endpointSeed.Lock()
	endpointSeed.n++
	seed := endpointSeed.n
	endpointSeed.Unlock()
	return &endpoint{p: p, node: node, in: simnet.NewMailbox[segment](), rng: simnet.NewRand(seed)}
}

// Conn is the user-visible stream handle. It satisfies io.ReadWriteCloser
// so protocol codecs (bufio, etc.) can sit on top unchanged. A Conn is
// owned by one actor; SetClock re-seats it (a server hands an accepted
// conn to a worker thread, which then charges its own virtual clock).
type Conn struct {
	ep  *endpoint
	clk *simnet.VClock

	rbuf []byte    // carry-over from a partially consumed segment
	wseg []segment // segments of the Write in progress (see flushSegs)

	// NoDelay disables Nagle (the paper's client sets this behaviour).
	NoDelay bool
}

var _ io.ReadWriteCloser = (*Conn)(nil)

// SetClock re-seats the connection onto a different actor's clock.
func (c *Conn) SetClock(clk *simnet.VClock) { c.clk = clk }

// Clock reports the owning clock.
func (c *Conn) Clock() *simnet.VClock { return c.clk }

// LocalNode reports the node this end lives on.
func (c *Conn) LocalNode() *simnet.Node { return c.ep.node }

// Provider reports the socket stack.
func (c *Conn) Provider() *Provider { return c.ep.p }

// Write sends len(b) bytes, charging syscall, copy and per-segment
// costs, and stamping each segment with its computed arrival time.
// It never blocks for window space (closed-loop request/response
// workloads keep streams shallow; see package docs). The segments reach
// the peer together when Write returns, so how many of them one read
// harvests is decided by their stamps, not by goroutine scheduling.
func (c *Conn) Write(b []byte) (int, error) {
	n, peer, err := c.write(b)
	if len(c.wseg) > 0 {
		peer.in.PutAll(c.wseg)
		clear(c.wseg) // drop the chunk references
		c.wseg = c.wseg[:0]
	}
	return n, err
}

// write stamps b's segments onto c.wseg for Write to hand over; the
// segments queued before an error are still delivered.
func (c *Conn) write(b []byte) (int, *endpoint, error) {
	ep := c.ep
	ep.mu.Lock()
	peer := ep.peer
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return 0, nil, ErrClosed
	}
	if peer == nil {
		return 0, nil, ErrClosed
	}
	p := ep.p
	c.clk.Advance(p.SendSyscall)
	if p.SendCopies > 0 {
		c.clk.Advance(simnet.BytesDuration(len(b)*p.SendCopies, p.CopyBytesPerSec))
	}
	written := 0
	for written < len(b) {
		n := len(b) - written
		if n > p.SegmentSize {
			n = p.SegmentSize
		}
		chunk := make([]byte, n)
		copy(chunk, b[written:written+n])
		c.clk.Advance(p.PerSegment)
		sendAt := c.clk.Now()
		if !c.NoDelay && n < p.SegmentSize && p.NagleDelay > 0 {
			// Nagle: a small trailing segment waits for the delayed ACK.
			sendAt += p.NagleDelay
		}
		if p.Jitter != nil {
			sendAt += p.Jitter(ep.rng)
		}
		arrive, outcome, err := p.Fabric.DeliverFaulty(ep.node, peer.node, sendAt+p.SendDeferred, n+p.WireHeader)
		if err != nil {
			return written, peer, ErrUnreachable
		}
		if outcome != simnet.Delivered {
			// Kernel TCP retransmission: the caller's thread is NOT
			// blocked (the stack retransmits asynchronously), but the
			// segment's arrival is pushed out by the RTO, which starts at
			// RTOMin and doubles per attempt — the 200 ms floor is why
			// loss collapses sockets tail latency while verbs-level
			// retransmission (µs ack timeouts) barely registers.
			rto := p.RTOMin
			txAt := sendAt + p.SendDeferred
			ok := false
			for r := 0; r < p.RTORetries; r++ {
				p.retransmits.Add(1)
				txAt += rto
				rto *= 2
				arrive, outcome, err = p.Fabric.DeliverFaulty(ep.node, peer.node, txAt, n+p.WireHeader)
				if err != nil {
					return written, peer, ErrUnreachable
				}
				if outcome == simnet.Delivered {
					ok = true
					break
				}
			}
			if !ok {
				return written, peer, ErrUnreachable
			}
		}
		c.wseg = append(c.wseg, segment{data: chunk, arrive: arrive + p.RecvDeferred})
		written += n
	}
	return written, peer, nil
}

// Read fills b with at least one byte, blocking until data arrives.
// The receive syscall cost is charged when the read actually takes data
// off the network (not when draining buffered carry-over).
func (c *Conn) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	if len(c.rbuf) == 0 {
		seg, ok := c.ep.in.Recv()
		if !ok {
			return 0, io.EOF
		}
		c.arrived(seg)
	}
	return c.consume(b), nil
}

// ReadDeadline is Read bounded by a virtual deadline (with a real-time
// cap for genuinely dead peers). On timeout the clock advances to the
// deadline and ErrReadTimeout is returned.
func (c *Conn) ReadDeadline(b []byte, deadline simnet.Time, realCap time.Duration) (int, error) {
	if len(c.rbuf) > 0 {
		return c.consume(b), nil
	}
	seg, ok, timedOut := c.ep.in.RecvTimeout(realCap)
	if timedOut || (ok && seg.arrive > deadline) {
		if ok {
			c.ep.in.PutFront(seg) // not ours yet; requeue
		}
		c.clk.AdvanceTo(deadline)
		return 0, ErrReadTimeout
	}
	if !ok {
		return 0, io.EOF
	}
	c.arrived(seg)
	return c.consume(b), nil
}

// arrived charges arrival costs for a segment and buffers its bytes,
// then opportunistically drains whatever else already arrived (one
// wakeup can harvest several segments, as with real epoll).
func (c *Conn) arrived(seg segment) {
	p := c.ep.p
	c.clk.AdvanceTo(seg.arrive)
	c.clk.Advance(p.RecvSyscall)
	c.chargeRecvCopy(len(seg.data))
	c.rbuf = append(c.rbuf, seg.data...)
	for {
		more, ok, _ := c.ep.in.TryRecv()
		if !ok {
			break
		}
		if more.arrive > c.clk.Now() {
			c.ep.in.PutFront(more)
			break
		}
		c.chargeRecvCopy(len(more.data))
		c.rbuf = append(c.rbuf, more.data...)
	}
}

func (c *Conn) chargeRecvCopy(n int) {
	p := c.ep.p
	if p.RecvCopies > 0 {
		c.clk.Advance(simnet.BytesDuration(n*p.RecvCopies, p.CopyBytesPerSec))
	}
}

func (c *Conn) consume(b []byte) int {
	n := copy(b, c.rbuf)
	// Slide the remainder to the front instead of re-slicing so the
	// carry-over buffer keeps its full capacity: a long-lived connection
	// reaches a steady state where arrivals append into existing backing
	// memory and the read path stops allocating.
	rem := copy(c.rbuf, c.rbuf[n:])
	c.rbuf = c.rbuf[:rem]
	return n
}

// Buffered reports bytes already delivered but not yet consumed.
func (c *Conn) Buffered() int { return len(c.rbuf) + c.ep.in.Len() }

// WaitReadable blocks until at least one byte is available to Read, or
// the stream is closed (false). It consumes nothing and charges no
// virtual time: it is the "libevent" half of a server's event loop —
// a waker goroutine parks here, then hands the connection to the worker
// thread that does the actual (cost-charged) Read. The waker and the
// reader must be sequenced, never concurrent.
func (c *Conn) WaitReadable() bool {
	if len(c.rbuf) > 0 {
		return true
	}
	seg, ok := c.ep.in.Recv()
	if !ok {
		return false
	}
	c.ep.in.PutFront(seg)
	return true
}

// SetReadyHook installs fn to run — on the delivering goroutine —
// whenever a segment lands on this end's incoming stream, and once when
// the stream closes. It is the edge-triggered alternative to parking a
// waker goroutine in WaitReadable: an event-loop worker registers a hook
// that marks the connection runnable and pokes the loop. fn must not
// block and must not touch the Conn itself (it runs concurrently with
// the owner); after installing, re-check Buffered()/StreamClosed, since
// arrivals that preceded the install fire no hook.
func (c *Conn) SetReadyHook(fn func()) { c.ep.in.SetNotifyHook(fn) }

// StreamClosed reports whether the incoming stream has been shut; with
// Buffered()==0 it means reads would return io.EOF.
func (c *Conn) StreamClosed() bool { return c.ep.in.Closed() }

// Close shuts both directions: the peer's pending data stays readable,
// after which its reads return io.EOF.
func (c *Conn) Close() error {
	ep := c.ep
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	peer := ep.peer
	ep.mu.Unlock()
	ep.in.Close()
	if peer != nil {
		peer.mu.Lock()
		peer.closed = true
		peer.mu.Unlock()
		peer.in.Close()
	}
	return nil
}
