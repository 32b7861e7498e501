package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// TestSRQCreditExhaustionBackpressure: a pipelined window far deeper
// than the shared pool runs the server's SRQ dry mid-burst. The RC
// sender must absorb that as RNR retries (visible on the client HCA's
// retransmit counter), every future must settle in bounded time —
// Stored when a repost won the race, ErrServerDown when the RNR budget
// ran out — and the server itself must come through unharmed: a fresh
// client's blocking workload completes normally afterwards. Exhaustion
// is backpressure plus clean per-op failure, never a hang or a wedged
// server.
func TestSRQCreditExhaustionBackpressure(t *testing.T) {
	d := New(ClusterB(), Options{UseSRQ: true, SRQBuffers: 4})
	defer d.Close()

	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	pr, ok := c.MC.Transport(0).(mcclient.Pipeliner)
	if !ok {
		t.Fatalf("transport cannot pipeline")
	}
	const n = 48
	pl := pr.Pipeline(16)
	clk := c.Clock
	var sets []*mcclient.SetFuture
	for i := 0; i < n; i++ {
		sets = append(sets, pl.StartSet(clk, fmt.Sprintf("srq%d", i), 0, 0, []byte(fmt.Sprintf("burst-val-%d", i))))
	}
	if err := pl.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("pipeline through starved SRQ: %v", err)
	}
	stored := 0
	for i, f := range sets {
		res, err := f.Wait(clk)
		switch {
		case err == nil && res == memcached.Stored:
			stored++
		case errors.Is(err, mcclient.ErrServerDown):
			// RNR budget exceeded for this send: clean failure.
		default:
			t.Fatalf("set %d = (%v, %v), want Stored or ErrServerDown", i, res, err)
		}
	}
	if rtx := c.Runtime().HCA().Retransmits(); rtx == 0 {
		t.Fatal("SRQBuffers=4 under a 16-deep window never triggered an RNR retry; exhaustion untested")
	}

	// The starved SRQ must not wedge the server: a fresh client's
	// blocking ops (one in flight, never past the pool) all succeed,
	// and whatever the burst stored is intact.
	c2, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatalf("post-burst NewClient: %v", err)
	}
	defer c2.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("post%d", i)
		if err := c2.MC.Set(key, []byte("recovered"), 0, 0); err != nil {
			t.Fatalf("post-burst set %d: %v", i, err)
		}
		if v, _, _, err := c2.MC.Get(key); err != nil || string(v) != "recovered" {
			t.Fatalf("post-burst get %d = (%q, %v)", i, v, err)
		}
	}
	recovered := 0
	for i := 0; i < n; i++ {
		v, _, _, err := c2.MC.Get(fmt.Sprintf("srq%d", i))
		if err == nil && string(v) == fmt.Sprintf("burst-val-%d", i) {
			recovered++
		}
	}
	if recovered < stored {
		t.Fatalf("burst reported %d Stored but only %d readable", stored, recovered)
	}
	if d.Server.UCRSRQDemux() == 0 {
		t.Fatal("no completion was demuxed off the shared SRQ")
	}
}

// TestServerCloseMidBurst: killing the server while a pipelined window
// is outstanding must settle every future in bounded time — success for
// whatever was already served, ErrServerDown for the rest — and a
// subsequent blocking op must fail fast with ErrServerDown, not hang.
func TestServerCloseMidBurst(t *testing.T) {
	d := New(ClusterB(), Options{})
	defer d.Close()

	b := mcclient.DefaultBehaviors()
	b.OpTimeout = 2 * simnet.Millisecond
	c, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	if err := c.MC.Set("warm", []byte("up"), 0, 0); err != nil {
		t.Fatalf("warmup set: %v", err)
	}

	pr := c.MC.Transport(0).(mcclient.Pipeliner)
	pl := pr.Pipeline(8)
	clk := c.Clock
	var futs []*mcclient.SetFuture
	for i := 0; i < 8; i++ {
		futs = append(futs, pl.StartSet(clk, fmt.Sprintf("mid%d", i), 0, 0, []byte("x")))
	}
	d.Server.Close()
	if err := pl.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("pipeline wait after server close: %v", err)
	}
	for i, f := range futs {
		if _, err := f.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
			t.Fatalf("future %d settled with %v, want nil or ErrServerDown", i, err)
		}
	}
	if err := c.MC.Set("after", []byte("y"), 0, 0); !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("post-close set err = %v, want ErrServerDown", err)
	}
}
