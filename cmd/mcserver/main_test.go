package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/memcached"
)

// scriptedListener hands out whatever the test sends next: a connection
// or an accept error.
type scriptedListener struct{ next chan acceptResult }

type acceptResult struct {
	conn net.Conn
	err  error
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	r := <-l.next
	return r.conn, r.err
}
func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopSurvivesErrors: accept errors are logged and retried
// with a doubling back-off that resets after a successful accept; a
// connection accepted after the errors is served; only a closed
// listener ends the loop.
func TestAcceptLoopSurvivesErrors(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	lis := &scriptedListener{next: make(chan acceptResult)}
	store := memcached.NewStore(memcached.StoreConfig{MemoryLimit: 8 << 20})
	done := make(chan struct{})
	go func() {
		acceptLoop(lis, store, time.Now(), false)
		close(done)
	}()

	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	lis.next <- acceptResult{err: emfile}
	lis.next <- acceptResult{err: emfile}
	srv, cli := net.Pipe()
	defer cli.Close()
	lis.next <- acceptResult{conn: srv}

	cli.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(cli)
	fmt.Fprint(cli, "set k 0 0 5\r\nhello\r\n")
	if line, err := r.ReadString('\n'); err != nil || line != "STORED\r\n" {
		t.Fatalf("set reply = (%q, %v)", line, err)
	}
	fmt.Fprint(cli, "get k\r\n")
	var reply strings.Builder
	for !strings.HasSuffix(reply.String(), "END\r\n") {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("get reply so far %q: %v", reply.String(), err)
		}
		reply.WriteString(line)
	}
	if want := "VALUE k 0 5\r\nhello\r\nEND\r\n"; reply.String() != want {
		t.Fatalf("get reply = %q, want %q", reply.String(), want)
	}

	lis.next <- acceptResult{err: emfile}
	lis.next <- acceptResult{err: &net.OpError{Op: "accept", Net: "tcp", Err: net.ErrClosed}}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop did not return on a closed listener")
	}

	var delays []string
	for _, m := range regexp.MustCompile(`retrying in (\S+)`).FindAllStringSubmatch(logs.String(), -1) {
		delays = append(delays, m[1])
	}
	if got, want := strings.Join(delays, " "), "5ms 10ms 5ms"; got != want {
		t.Fatalf("back-off delays = %q, want %q\nlog:\n%s", got, want, logs.String())
	}
}

func TestNextAcceptDelay(t *testing.T) {
	var got []time.Duration
	d := time.Duration(0)
	for i := 0; i < 10; i++ {
		d = nextAcceptDelay(d)
		got = append(got, d)
	}
	want := []time.Duration{5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("delays = %v, want %v ms", got, want)
		}
	}
}
