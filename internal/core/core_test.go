package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mcclient"
)

func TestSystemLifecycle(t *testing.T) {
	sys, err := NewSystem(Config{Cluster: "B"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	c, err := sys.AddClient("UCR-IB")
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 1000)
	if err := c.MC.Set("hello", val, 1, 0); err != nil {
		t.Fatal(err)
	}
	got, flags, _, err := c.MC.Get("hello")
	if err != nil || !bytes.Equal(got, val) || flags != 1 {
		t.Fatalf("Get = (%d bytes, %d, %v)", len(got), flags, err)
	}

	stats := sys.ServerStats()
	if stats["cmd_set"] != 1 || stats["get_hits"] != 1 || stats["curr_items"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestSystemDefaultsAndValidation(t *testing.T) {
	if _, err := NewSystem(Config{Cluster: "Z"}); err == nil {
		t.Fatal("bad cluster accepted")
	}
	sys, err := NewSystem(Config{}) // defaults to A
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	trs := sys.Transports()
	if len(trs) != 5 {
		t.Fatalf("cluster A transports = %v", trs)
	}
	if _, err := sys.AddClient("no-such-transport"); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestSystemMixedClients(t *testing.T) {
	sys, err := NewSystem(Config{Cluster: "A", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	writer, err := sys.AddClient("UCR-IB")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sys.AddClient("SDP")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.MC.Set("shared", []byte("one-cache"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := reader.MC.Get("shared")
	if err != nil || string(v) != "one-cache" {
		t.Fatalf("cross-transport read = (%q, %v)", v, err)
	}
}

func TestSystemUDClient(t *testing.T) {
	sys, err := NewSystem(Config{Cluster: "B"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c, err := sys.AddClientUD()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MC.Set("dg", []byte("datagram"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := c.MC.Get("dg")
	if err != nil || string(v) != "datagram" {
		t.Fatalf("UD get = (%q, %v)", v, err)
	}
	// UD cannot carry values beyond one MTU.
	if err := c.MC.Set("big", make([]byte, 64*1024), 0, 0); err == nil {
		t.Fatal("oversized UD set should fail")
	}
	// Nor read them back: a value an RC client stored is a server error
	// on every UD get path, never a miss.
	rc, err := sys.AddClient("UCR-IB")
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.MC.Set("big", make([]byte, 64*1024), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.MC.Get("big"); !errors.Is(err, mcclient.ErrServerError) {
		t.Fatalf("UD get of oversized value: err = %v, want ErrServerError", err)
	}
	if m, err := c.MC.GetMulti([]string{"big"}); !errors.Is(err, mcclient.ErrServerError) {
		t.Fatalf("UD mget of oversized value = (%d items, %v), want ErrServerError", len(m), err)
	}
	pl := c.MC.Transport(0).(mcclient.Pipeliner).Pipeline(2)
	f := pl.StartGet(c.Clock, "big")
	if _, _, _, _, err := f.Wait(c.Clock); !errors.Is(err, mcclient.ErrServerError) {
		t.Fatalf("UD pipelined get of oversized value: err = %v, want ErrServerError", err)
	}
	if err := pl.Wait(c.Clock); err != nil {
		t.Fatalf("pipeline wait: %v", err)
	}
	// The server stays in the pool.
	if v, _, _, err := c.MC.Get("dg"); err != nil || string(v) != "datagram" {
		t.Fatalf("UD get after oversized reads = (%q, %v)", v, err)
	}
}

func TestSystemBehaviorsApplied(t *testing.T) {
	b := mcclient.DefaultBehaviors()
	b.Distribution = mcclient.DistKetama
	sys, err := NewSystem(Config{Cluster: "A", Behaviors: b})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c, err := sys.AddClient("10GigE-TOE")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MC.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
}
