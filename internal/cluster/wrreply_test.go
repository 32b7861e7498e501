package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// wrVal builds a deterministic value whose bytes encode their position,
// so a reply landing in the wrong slot (or a torn write) is caught by
// the equality check, not just by length.
func wrVal(size, seed int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(i*13 + seed)
	}
	return v
}

// TestWriteRepliesServeGets: with the write-based reply path armed,
// GETs across the crossover ladder still round-trip intact — small
// values over the eager fallback, mid-size values via RDMA writes into
// the client's reply window, oversize values (beyond the 64 KB slot)
// via the rendezvous fallback — and both ends' vacuity counters prove
// the write path actually carried traffic.
func TestWriteRepliesServeGets(t *testing.T) {
	d := New(ClusterB(), Options{WriteReplies: true})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ut := clientUCRTransport(t, c)

	// 64 B sits below the 1 KB crossover (eager fallback), 4 KB and
	// 64 KB ride the write path (64 KB + header exactly fills a slot),
	// 128 KB exceeds the slot and falls back to rendezvous.
	writeSized := map[int]bool{4096: true, 64 << 10: true}
	for _, size := range []int{64, 4096, 64 << 10, 128 << 10} {
		key := fmt.Sprintf("wr-%d", size)
		val := wrVal(size, size)
		if err := c.MC.Set(key, val, uint32(size), 0); err != nil {
			t.Fatalf("Set %d: %v", size, err)
		}
		before := ut.WriteReplyHits()
		got, flags, _, err := c.MC.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", size, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("size %d: value corrupted through the write-reply path", size)
		}
		if flags != uint32(size) {
			t.Fatalf("size %d: flags = %d", size, flags)
		}
		hit := ut.WriteReplyHits() > before
		if hit != writeSized[size] {
			t.Fatalf("size %d: write-path used = %v, want %v (crossover misrouted)", size, hit, writeSized[size])
		}
	}
	// Misses and overwrites still behave with the arena armed.
	if _, _, _, err := c.MC.Get("wr-never-set"); err != mcclient.ErrCacheMiss {
		t.Fatalf("miss err = %v", err)
	}
	upd := wrVal(4096, 99)
	if err := c.MC.Set("wr-4096", upd, 7, 0); err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := c.MC.Get("wr-4096"); err != nil || !bytes.Equal(got, upd) {
		t.Fatalf("overwrite read-back = (%d bytes, %v)", len(got), err)
	}

	if ut.WriteReplyHits() == 0 {
		t.Fatal("client saw no write-based replies (vacuous test)")
	}
	if d.Server.UCRWriteReplies() == 0 {
		t.Fatal("server posted no write-based replies (vacuous test)")
	}
}

// TestWriteRepliesGetMulti: a batch whose reply exceeds the crossover
// is answered with one gather write of [headers ‖ values] into the
// client's slot instead of an eager pack or a rendezvous read.
func TestWriteRepliesGetMulti(t *testing.T) {
	d := New(ClusterB(), Options{WriteReplies: true})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ut := clientUCRTransport(t, c)

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("mw-%d", i)
		if err := c.MC.Set(keys[i], wrVal(4096, i), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.MC.GetMulti(append(keys, "mw-missing")) // 32 KB aggregate: write path
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("GetMulti returned %d of %d", len(got), len(keys))
	}
	for i, k := range keys {
		if !bytes.Equal(got[k], wrVal(4096, i)) {
			t.Fatalf("mget value for %s corrupted", k)
		}
	}
	if ut.WriteReplyHits() == 0 {
		t.Fatal("mget batch never used the write path")
	}
	// A batch past the slot (> 64 KB aggregate) must still come back
	// intact over the rendezvous fallback.
	bigKeys := make([]string, 5)
	for i := range bigKeys {
		bigKeys[i] = fmt.Sprintf("mwbig-%d", i)
		if err := c.MC.Set(bigKeys[i], wrVal(32<<10, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := ut.WriteReplyHits()
	gotBig, err := c.MC.GetMulti(bigKeys) // 160 KB aggregate: exceeds the slot
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range bigKeys {
		if !bytes.Equal(gotBig[k], wrVal(32<<10, i)) {
			t.Fatalf("oversize mget corrupted %s", k)
		}
	}
	if ut.WriteReplyHits() != before {
		t.Fatal("oversize mget should have fallen back past the write path")
	}
}

// TestWriteRepliesPipelined: a pipelined GET window over write-sized
// values posts its replies as doorbell-coalesced write bursts; every
// future lands its own slot's bytes.
func TestWriteRepliesPipelined(t *testing.T) {
	d := New(ClusterB(), Options{WriteReplies: true})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ut := clientUCRTransport(t, c)

	const n = 24
	for i := 0; i < n; i++ {
		if err := c.MC.Set(fmt.Sprintf("pw-%d", i), wrVal(4096, i), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	pl := ut.Pipeline(8)
	clk := c.Clock
	futs := make([]*mcclient.GetFuture, n)
	for i := 0; i < n; i++ {
		futs[i] = pl.StartGet(clk, fmt.Sprintf("pw-%d", i))
	}
	if err := pl.Wait(clk); err != nil {
		t.Fatalf("pipeline wait: %v", err)
	}
	for i, f := range futs {
		v, fl, _, hit, err := f.Wait(clk)
		if err != nil || !hit {
			t.Fatalf("future %d = (hit=%v, %v)", i, hit, err)
		}
		if fl != uint32(i) || !bytes.Equal(v, wrVal(4096, i)) {
			t.Fatalf("future %d landed the wrong slot's bytes (flags=%d)", i, fl)
		}
	}
	if hits := ut.WriteReplyHits(); hits < n {
		t.Fatalf("WriteReplyHits = %d, want ≥ %d (pipelined window fell off the write path)", hits, n)
	}
}

// TestWriteRepliesServerCloseMidBurst: killing the server while a
// pipelined window of write-path GETs is outstanding must settle every
// future in bounded time — the item pinned for each in-flight RDMA
// write is released by the counter sweep whether the write completed or
// flushed, so nothing hangs and nothing leaks. A settled success must
// carry intact bytes (the data write is FIFO-ordered before its
// notify); everything else fails cleanly with ErrServerDown.
func TestWriteRepliesServerCloseMidBurst(t *testing.T) {
	d := New(ClusterB(), Options{WriteReplies: true})
	defer d.Close()

	b := mcclient.DefaultBehaviors()
	b.OpTimeout = 2 * simnet.Millisecond
	c, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ut := clientUCRTransport(t, c)

	const n = 8
	for i := 0; i < n; i++ {
		if err := c.MC.Set(fmt.Sprintf("cb-%d", i), wrVal(4096, i), 0, 0); err != nil {
			t.Fatalf("warm set %d: %v", i, err)
		}
	}

	pl := ut.Pipeline(n)
	clk := c.Clock
	futs := make([]*mcclient.GetFuture, n)
	for i := 0; i < n; i++ {
		futs[i] = pl.StartGet(clk, fmt.Sprintf("cb-%d", i))
	}
	d.Server.Close()
	if err := pl.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("pipeline wait after server close: %v", err)
	}
	for i, f := range futs {
		v, _, _, hit, err := f.Wait(clk)
		switch {
		case err == nil && hit:
			if !bytes.Equal(v, wrVal(4096, i)) {
				t.Fatalf("future %d settled OK with corrupt bytes after mid-burst close", i)
			}
		case err == nil:
			// A miss reply that raced the shutdown: clean settle.
		case errors.Is(err, mcclient.ErrServerDown):
			// Request or reply died with the server: clean settle.
		default:
			t.Fatalf("future %d settled with %v, want nil or ErrServerDown", i, err)
		}
	}
	if _, _, _, err := c.MC.Get("cb-0"); !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("post-close get err = %v, want ErrServerDown", err)
	}
}

// clientUCRTransport digs the first server's UCRTransport out of a
// client handle.
func clientUCRTransport(t *testing.T, c *Client) *mcclient.UCRTransport {
	t.Helper()
	ut, ok := c.MC.Transport(0).(*mcclient.UCRTransport)
	if !ok {
		t.Fatalf("transport is %T, not *UCRTransport", c.MC.Transport(0))
	}
	return ut
}
