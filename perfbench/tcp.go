package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/memcached"
)

// tcpWorkload drives the real cmd/mcserver on loopback with raw
// text-protocol connections running the look-aside loop. It bypasses
// the simulator entirely: every number it reports is wall-clock.
type tcpWorkload struct {
	bin string
}

const (
	tcpKeys    = 100000
	tcpMinSize = 64
	tcpMaxSize = 4 << 10
	tcpZipfS   = 0.99
	tcpSetFrac = 0.10
	tcpMemMB   = 64
	// tcpMaxItemKB is mcserver's default -I.
	tcpMaxItemKB = 1024
	// tcpConns is the number of load-generator connections. With two,
	// the generator's two threads and mcserver's goroutines oversubscribe
	// a 2-vCPU host and runs split into modes by thread placement (66 to
	// 79 kops over five seeds in one batch); concurrent sets also meet a
	// race in the striped engine that refuses sets (perfbench/README.md,
	// Known effects). One connection keeps mcserver on its default
	// engine with no op failing.
	tcpConns = 1
	// tcpRounds is how many times a run spawns, populates and measures
	// a server. Rounds differ by more than the windows within one (the
	// server's threads land differently each time), so several short
	// rounds average that out; setup_s is the median over rounds.
	tcpRounds = 6
	// tcpWindow is the measurement window: throughput and latency
	// percentiles are taken per window and reported as medians over all
	// windows of a run, which keeps a short burst of contention on the
	// host from moving the result.
	tcpWindow = 250 * time.Millisecond
	// tcpMaxStream caps the ops a traced round records per connection
	// for the replays.
	tcpMaxStream = 50000
)

func (w *tcpWorkload) keyspace(seed uint64) *keyspace {
	return newKeyspace(seed, tcpKeys, tcpMinSize, tcpMaxSize, tcpZipfS)
}

// populateKeys lists the keys a round's populate writes: warmKeys for
// the one server's memory.
func (w *tcpWorkload) populateKeys(ks *keyspace) []int {
	class := ks.slabClasses(memcached.NewSlabArena(tcpMemMB<<20, tcpMaxItemKB<<10))
	return ks.warmKeys(tcpMemMB<<20, class, func(string) int { return 0 })
}

// tcpRound is one server's measured phase.
type tcpRound struct {
	spawnS, populateS   float64
	wallS               float64
	ops, gets, hits     int64
	fails, wrong        int64
	errs                int64
	windows             []window
	stream              []op
	serverCPU, selfCPU  time.Duration
	hwmMB               float64
	evictions, malloced int64
	mallocs             uint64
}

func (w *tcpWorkload) measure(seed uint64, seconds float64) (*outcome, error) {
	rounds, err := w.rounds(seed, seconds, nil)
	if rounds == nil {
		return nil, err
	}
	o := &outcome{}
	var kops, p50, p90, p99, hwm, setup []float64
	var gets, hits int64
	var wallS float64
	for _, r := range rounds {
		for _, w := range r.windows {
			kops = append(kops, w.kops)
			p50 = append(p50, w.p50us)
			p90 = append(p90, w.p90us)
			p99 = append(p99, w.p99us)
		}
		hwm = append(hwm, r.hwmMB)
		setup = append(setup, r.spawnS+r.populateS)
		o.attempted += r.ops
		o.failed += r.fails
		o.wrong += r.wrong
		gets += r.gets
		hits += r.hits
		wallS += r.wallS
	}
	// The connections run concurrently, so wall time per op is the
	// round's wall time over all its ops.
	o.wallPerOp = wallS / float64(o.attempted)
	fmt.Printf("# tcp-lookaside seed %d: %d rounds, %d ops; %d windows of %v, median %d latency samples each\n",
		seed, len(rounds), o.attempted, len(kops), tcpWindow, int(median(kops)*tcpWindow.Seconds()*1e3))
	failRatio := ratio(float64(o.failed), float64(o.attempted))
	o.values = map[string]float64{
		"kops":      median(kops),
		"p50_us":    median(p50),
		"p90_us":    median(p90),
		"wall_kops": median(kops),
		"mem_mb":    median(hwm),
		"hit_ratio": ratio(float64(hits), float64(gets)),
		"ok_ratio":  1 - failRatio,
		"setup_s":   median(setup),
	}
	printNamed([]named{
		{"tcp_kops", median(kops), "kops"},
		{"tcp_p50_us", median(p50), "us"},
		{"tcp_p90_us", median(p90), "us"},
		{"tcp_p99_us", median(p99), "us"},
		{"server_rss_mb", median(hwm), "MB"},
		{"hit_ratio", o.values["hit_ratio"], "ratio"},
		{"fail_ratio", failRatio, "ratio"},
		{"setup_s", o.values["setup_s"], "s"},
	})
	return o, err
}

func (w *tcpWorkload) traced(seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	rounds, err := w.rounds(seed, seconds, tr)
	if rounds == nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}}
	var spawn, populate []float64
	var serverCPU, selfCPU time.Duration
	var evictions, errs int64
	var mallocs uint64
	for _, r := range rounds {
		spawn = append(spawn, r.spawnS)
		populate = append(populate, r.populateS)
		o.attempted += r.ops
		o.failed += r.fails
		o.wrong += r.wrong
		serverCPU += r.serverCPU
		selfCPU += r.selfCPU
		evictions += r.evictions
		errs += r.errs
		mallocs += r.mallocs
	}
	ops := float64(o.attempted)
	o.wallPerOp = tr.passWall / float64(tr.passOps)
	cpuShares(o.values, &tr.samples)
	last := rounds[len(rounds)-1]
	ks := w.keyspace(seed)
	rp, rerr := replay(ks, w.populateKeys(ks), last.stream, tcpMemMB<<20)
	if rerr != nil {
		return nil, rerr
	}
	for k, v := range map[string]float64{
		"runtime.allocs_per_op":       ratio(float64(mallocs), ops),
		"memcached.evictions_per_kop": perKop(float64(rp.evictions), float64(rp.ops)),
		"memcached.oom_per_kop":       perKop(float64(rp.oom), float64(rp.ops)),
		"memcached.slab_malloced_mb":  float64(last.malloced) / (1 << 20),
		"memcached.store_ns_per_op":   rp.storeNs,
		"memcached.proto_ns_per_cmd":  rp.protoNs,
		"mcclient.errors":             float64(errs),
		"cluster.deploy_s":            median(spawn),
		"cluster.populate_s":          median(populate),
		"mcserver.cpu_us_per_op":      ratio(float64(serverCPU.Microseconds()), ops),
		"mcserver.evictions_per_kop":  perKop(float64(evictions), ops),
		"loadgen.cpu_us_per_op":       ratio(float64(selfCPU.Microseconds()), ops),
	} {
		o.values[k] = v
	}
	return o, err
}

// rounds runs tcpRounds rounds splitting the measured seconds. With
// wrong values it returns the rounds and errWrongValue.
func (w *tcpWorkload) rounds(seed uint64, seconds float64, tr *tracer) ([]*tcpRound, error) {
	ks := w.keyspace(seed)
	var out []*tcpRound
	var evictions int64
	for i := 0; i < tcpRounds; i++ {
		r, err := w.round(ks, seed, seconds/tcpRounds, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		evictions += r.evictions
		out = append(out, r)
	}
	for _, r := range out {
		if r.wrong > 0 {
			return out, errWrongValue
		}
	}
	if evictions == 0 {
		return nil, fmt.Errorf("vacuous run: mcserver evicted nothing in the look-aside loop")
	}
	return out, nil
}

func (w *tcpWorkload) round(ks *keyspace, seed uint64, seconds float64, tr *tracer) (*tcpRound, error) {
	r := &tcpRound{}
	t0 := time.Now()
	srv, err := startServer(w.bin)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	conns := make([]*tcpConn, tcpConns)
	for i := range conns {
		c, err := dialTCP(srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.c.Close()
		conns[i] = c
	}
	r.spawnS = since(t0)

	t1 := time.Now()
	if err := conns[0].populate(ks, w.populateKeys(ks)); err != nil {
		return nil, err
	}
	r.populateS = since(t1)

	st0, err := conns[0].stats("")
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	if tr != nil {
		tr.startCPU()
	}

	results := make([]*connLoop, tcpConns)
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	wall := time.Now()
	for i, c := range conns {
		l := &connLoop{c: c, ks: ks, rng: rand.New(rand.NewPCG(seed, uint64(i)+1)),
			buf: make([]byte, tcpMaxSize), lat: make([]int64, 0, 1<<16), ends: make([]int64, 0, 1<<16), start: wall}
		if tr != nil {
			l.tr = tr.fork()
			l.stream = make([]op, 0, tcpMaxStream)
		}
		results[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(deadline)
		}()
	}
	wg.Wait()
	r.wallS = since(wall)
	r.windows = windows(results, r.wallS)
	if tr != nil {
		if err := tr.stopCPU(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs0
	r.selfCPU = selfCPU() - self0
	if !srv.alive() {
		return nil, fmt.Errorf("mcserver died mid-run: %v", srv.waitErr)
	}
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	r.serverCPU = cpu1 - cpu0
	for _, l := range results {
		if l.err != nil {
			return nil, l.err
		}
		r.ops += l.ops
		r.gets += l.gets
		r.hits += l.hits
		r.fails += l.fails
		r.wrong += l.wrong
		r.errs += l.errs
		r.stream = append(r.stream, l.stream...)
		if tr != nil {
			tr.merge(l.tr)
		}
	}
	if tr != nil {
		tr.passWall += r.wallS
		tr.passOps += r.ops
	}
	st1, err := conns[0].stats("")
	if err != nil {
		return nil, err
	}
	slabs, err := conns[0].stats("slabs")
	if err != nil {
		return nil, err
	}
	r.evictions = st1["evictions"] - st0["evictions"]
	r.malloced = slabs["total_malloced"]
	if r.hwmMB, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	return r, nil
}

// window is one measurement window's throughput and latency.
type window struct {
	kops, p50us, p90us, p99us float64
}

// windows splits the connections' ops into tcpWindow windows by
// completion time; a trailing partial window is dropped.
func windows(loops []*connLoop, wallS float64) []window {
	n := int(wallS / tcpWindow.Seconds())
	lat := make([][]int64, n)
	for _, l := range loops {
		for i, end := range l.ends {
			if w := int(end / int64(tcpWindow)); w < n {
				lat[w] = append(lat[w], l.lat[i])
			}
		}
	}
	out := make([]window, 0, n)
	for _, ls := range lat {
		if len(ls) == 0 {
			continue
		}
		out = append(out, window{
			kops:  float64(len(ls)) / tcpWindow.Seconds() / 1e3,
			p50us: percentile(ls, 50) / 1e3,
			p90us: percentile(ls, 90) / 1e3,
			p99us: percentile(ls, 99) / 1e3,
		})
	}
	return out
}

// connLoop is one connection's closed look-aside loop.
type connLoop struct {
	c   *tcpConn
	ks  *keyspace
	rng *rand.Rand
	buf []byte
	ver uint32
	tr  *tracer
	lat []int64
	// ends are the ops' completion times, in ns since the phase began.
	ends   []int64
	start  time.Time
	stream []op

	ops, gets, hits, fails, wrong, errs int64
	err                                 error
}

func (l *connLoop) run(deadline time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for now := time.Now(); now.Before(deadline); {
		k := l.ks.draw(l.rng)
		if l.rng.Float64() < tcpSetFrac {
			now = l.set(k, now)
		} else {
			var miss bool
			miss, now = l.get(k, now)
			if miss {
				now = l.set(k, now)
			}
		}
		if l.err != nil {
			return
		}
	}
}

func (l *connLoop) record(kind uint8, k int) {
	if l.stream != nil && len(l.stream) < cap(l.stream) {
		l.stream = append(l.stream, op{kind: kind, key: int32(k), size: int32(l.ks.sizes[k])})
	}
}

// get issues one get at start and returns whether it missed and when
// it ended.
func (l *connLoop) get(k int, start time.Time) (bool, time.Time) {
	key := l.ks.keys[k]
	var tok spanTok
	if l.tr != nil {
		l.tr.op = l.ops
		tok = l.tr.begin(spConnGet)
	}
	v, hit, err := l.c.get(key)
	if l.tr != nil {
		l.tr.end(tok)
	}
	end := time.Now()
	l.lat = append(l.lat, int64(end.Sub(start)))
	l.ends = append(l.ends, int64(end.Sub(l.start)))
	l.record(opGet, k)
	l.ops++
	l.gets++
	switch {
	case err != nil:
		l.fail(err)
	case hit:
		l.hits++
		if !checkValue(v, key) {
			l.wrong++
			l.fails++
		}
	}
	return !hit && err == nil, end
}

func (l *connLoop) set(k int, start time.Time) time.Time {
	key := l.ks.keys[k]
	l.ver++
	v := fillValue(l.buf[:l.ks.sizes[k]], key, l.ver)
	var tok spanTok
	if l.tr != nil {
		l.tr.op = l.ops
		tok = l.tr.begin(spConnSet)
	}
	err := l.c.set(key, v)
	if l.tr != nil {
		l.tr.end(tok)
	}
	end := time.Now()
	l.lat = append(l.lat, int64(end.Sub(start)))
	l.ends = append(l.ends, int64(end.Sub(l.start)))
	l.record(opSet, k)
	l.ops++
	if err != nil {
		l.fail(err)
	}
	return end
}

// errServer is a SERVER_ERROR reply.
var errServer = errors.New("SERVER_ERROR")

func (l *connLoop) fail(err error) {
	l.fails++
	if errors.Is(err, errServer) {
		return
	}
	// A transport error desynchronizes the connection: stop the loop.
	l.errs++
	l.err = err
}

// tcpConn is one raw text-protocol connection.
type tcpConn struct {
	c   io.Closer
	r   *bufio.Reader
	w   *bufio.Writer
	val []byte
}

func dialTCP(addr string) (*tcpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	f, err := c.(*net.TCPConn).File()
	c.Close()
	if err != nil {
		return nil, err
	}
	fc := &fdConn{f: f, fd: int(f.Fd())}
	return &tcpConn{c: fc, r: bufio.NewReaderSize(fc, 64<<10), w: bufio.NewWriterSize(fc, 64<<10), val: make([]byte, tcpMaxSize+2)}, nil
}

// fdConn does blocking reads and writes on a socket descriptor.
type fdConn struct {
	f  *os.File
	fd int
}

func (c *fdConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *fdConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(c.fd, p[done:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

func (c *fdConn) Close() error { return c.f.Close() }

func (c *tcpConn) line() ([]byte, error) {
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(b, "\r\n"), nil
}

// get fetches key; the value aliases the connection's buffer.
func (c *tcpConn) get(key string) ([]byte, bool, error) {
	c.w.WriteString("get ")
	c.w.WriteString(key)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return nil, false, err
	}
	ln, err := c.line()
	if err != nil {
		return nil, false, err
	}
	if string(ln) == "END" {
		return nil, false, nil
	}
	f := bytes.Fields(ln)
	if len(f) < 4 || string(f[0]) != "VALUE" || string(f[1]) != key {
		return nil, false, fmt.Errorf("get %s: unexpected reply %q", key, ln)
	}
	n, err := strconv.Atoi(string(f[3]))
	if err != nil || n > tcpMaxSize {
		return nil, false, fmt.Errorf("get %s: bad length in %q", key, ln)
	}
	if _, err := io.ReadFull(c.r, c.val[:n+2]); err != nil {
		return nil, false, err
	}
	if ln, err = c.line(); err != nil || string(ln) != "END" {
		return nil, false, fmt.Errorf("get %s: missing END (%q, %v)", key, ln, err)
	}
	return c.val[:n], true, nil
}

func (c *tcpConn) writeSet(key string, v []byte) {
	c.w.WriteString("set ")
	c.w.WriteString(key)
	c.w.WriteString(" 0 0 ")
	c.w.WriteString(strconv.Itoa(len(v)))
	c.w.WriteString("\r\n")
	c.w.Write(v)
	c.w.WriteString("\r\n")
}

func (c *tcpConn) setReply(key string) error {
	ln, err := c.line()
	switch {
	case err != nil:
		return err
	case string(ln) == "STORED":
		return nil
	case bytes.HasPrefix(ln, []byte("SERVER_ERROR")):
		return fmt.Errorf("set %s: %w: %s", key, errServer, ln)
	default:
		return fmt.Errorf("set %s: unexpected reply %q", key, ln)
	}
}

func (c *tcpConn) set(key string, v []byte) error {
	c.writeSet(key, v)
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.setReply(key)
}

// populate writes keys in order, pipelined in batches; SERVER_ERROR
// replies are tolerated (the cache is filled to its limit).
func (c *tcpConn) populate(ks *keyspace, keys []int) error {
	const batch = 64
	buf := make([]byte, tcpMaxSize)
	for lo := 0; lo < len(keys); lo += batch {
		b := keys[lo:min(lo+batch, len(keys))]
		for _, k := range b {
			c.writeSet(ks.keys[k], fillValue(buf[:ks.sizes[k]], ks.keys[k], 1))
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for _, k := range b {
			if err := c.setReply(ks.keys[k]); err != nil && !errors.Is(err, errServer) {
				return fmt.Errorf("populate: %w", err)
			}
		}
	}
	return nil
}

// stats runs "stats [sub]" and returns its numeric fields.
func (c *tcpConn) stats(sub string) (map[string]int64, error) {
	cmd := "stats\r\n"
	if sub != "" {
		cmd = "stats " + sub + "\r\n"
	}
	c.w.WriteString(cmd)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for {
		ln, err := c.line()
		if err != nil {
			return nil, err
		}
		if string(ln) == "END" {
			return out, nil
		}
		f := strings.Fields(string(ln))
		if len(f) == 3 && f[0] == "STAT" {
			if v, err := strconv.ParseInt(f[2], 10, 64); err == nil {
				out[f[1]] = v
			}
		}
	}
}

// server is a spawned cmd/mcserver.
type server struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	waitErr error
}

// startServer spawns mcserver on an ephemeral loopback port, reads the
// bound address from its "listening on" log line and waits until it
// answers a version command.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-m", strconv.Itoa(tcpMemMB))
	// The server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn mcserver: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				if f := strings.Fields(after); len(f) > 0 {
					addrc <- f[0]
					sent = true
				}
			}
		}
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addrc:
	case <-s.exited:
		return nil, fmt.Errorf("mcserver exited before listening: %v", s.waitErr)
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("mcserver did not report a listening address")
	}
	if err := s.waitReady(10 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := dialTCP(s.addr)
		if err == nil {
			c.w.WriteString("version\r\n")
			err = c.w.Flush()
			var ln []byte
			if err == nil {
				ln, err = c.line()
			}
			c.c.Close()
			if err == nil && bytes.HasPrefix(ln, []byte("VERSION ")) {
				return nil
			}
		}
		if !s.alive() || time.Now().After(deadline) {
			return fmt.Errorf("mcserver at %s not ready: %v", s.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop kills the server and waits until it has been reaped.
func (s *server) stop() {
	if s.alive() {
		s.cmd.Process.Kill()
	}
	<-s.exited
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on Linux).
const clockTick = 10 * time.Millisecond

// procCPU reads a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad CPU times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procHWM reads a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
