// Command mcserver runs the Memcached engine from this repository over
// the real operating-system network stack: the same slab allocator,
// hash table, LRU, expiry and text protocol that the simulated
// benchmarks exercise, served on a TCP port. It is wire-compatible with
// standard memcached clients for the implemented command set (get,
// gets, set, add, replace, append, prepend, cas, delete, incr, decr,
// touch, stats, flush_all, version, verbosity, quit).
//
// Usage:
//
//	mcserver [-addr :11211] [-m 64] [-M] [-v]
//
// Virtual time for expiry maps to wall-clock seconds since start.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"time"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

func main() {
	var (
		addr      = flag.String("addr", ":11211", "listen address")
		memMB     = flag.Int64("m", 64, "memory limit in megabytes")
		noEvict   = flag.Bool("M", false, "return errors instead of evicting")
		verbose   = flag.Bool("v", false, "log connections")
		maxItemKB = flag.Int("I", 1024, "maximum item size in kilobytes")
		stripes   = flag.Int("stripes", 8, "cache-engine lock stripes (1 = global lock)")
	)
	flag.Parse()

	store := memcached.NewStore(memcached.StoreConfig{
		MemoryLimit:      *memMB << 20,
		MaxItemSize:      *maxItemKB << 10,
		DisableEvictions: *noEvict,
		Stripes:          *stripes,
	})

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mcserver: %v", err)
	}
	log.Printf("mcserver: engine %s listening on %s (%d MB)", memcached.Version, lis.Addr(), *memMB)

	acceptLoop(lis, store, time.Now(), *verbose)
}

// Accept back-off bounds (the schedule net/http's server uses).
const (
	acceptDelayMin = 5 * time.Millisecond
	acceptDelayMax = time.Second
)

// acceptLoop serves every connection lis yields until lis is closed. An
// accept error — EMFILE when the process is out of descriptors,
// ECONNABORTED from a client that gave up in the backlog — is logged
// and retried after a back-off that starts at acceptDelayMin, doubles
// up to acceptDelayMax and resets on the next successful accept, so a
// transient condition never takes the cache down. It returns only on
// net.ErrClosed.
func acceptLoop(lis net.Listener, store *memcached.Store, start time.Time, verbose bool) {
	var delay time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = nextAcceptDelay(delay)
			log.Printf("mcserver: accept: %v; retrying in %v", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		if verbose {
			log.Printf("mcserver: connection from %s", conn.RemoteAddr())
		}
		go serve(conn, store, start, verbose)
	}
}

// nextAcceptDelay is the back-off after an accept error, given the
// previous one (zero after a successful accept).
func nextAcceptDelay(prev time.Duration) time.Duration {
	return min(max(2*prev, acceptDelayMin), acceptDelayMax)
}

// serve drives one connection. The wall clock stands in for virtual
// time so relative expiry behaves like stock memcached. The clock is
// re-synced on every socket read, not once per loop: setting it only
// before ServeOne stamps a command with the time the PREVIOUS reply was
// sent, so a key could outlive its TTL across an idle gap on a blocked
// read.
func serve(conn net.Conn, store *memcached.Store, start time.Time, verbose bool) {
	defer conn.Close()
	clk := simnet.NewVClock(0)
	pc := memcached.NewProtoConn(wallSync{conn, clk, start}, store)
	for {
		clk.Set(simnet.Time(time.Since(start)))
		quit, err := pc.ServeOne(clk)
		if err != nil {
			if verbose {
				log.Printf("mcserver: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if quit {
			return
		}
	}
}

// wallSync forwards the connection's bytes and moves the virtual clock
// up to wall time whenever data arrives, so command execution (which
// happens after the full request is read) sees the current time even
// after the connection sat idle in a blocking read.
type wallSync struct {
	net.Conn
	clk   *simnet.VClock
	start time.Time
}

func (w wallSync) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	if t := simnet.Time(time.Since(w.start)); t > w.clk.Now() {
		w.clk.Set(t)
	}
	return n, err
}
