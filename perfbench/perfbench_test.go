package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/memcached"
)

// TestSameSeedSameVirtualResult runs each simulated workload twice with
// one seed and requires identical virtual-time results and hit ratios.
func TestSameSeedSameVirtualResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both simulated workloads")
	}
	for _, w := range []*simWorkload{ucrPipelinedGet, ipoibLookaside} {
		var got [2]virt
		for i := range got {
			trials, err := w.trials(7, 0, nil, 9)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			v, agree := modeVirt(trials)
			t.Logf("%s pass %d: %+v (%d of %d trials agree)", w.name, i, v, agree, len(trials))
			got[i] = v
		}
		if got[0] != got[1] {
			t.Errorf("%s: same seed, different virtual-time results:\n%+v\n%+v", w.name, got[0], got[1])
		}
	}
}

func TestValueCheck(t *testing.T) {
	buf := make([]byte, 300)
	v := fillValue(buf, "k000042", 3)
	if !checkValue(v, "k000042") {
		t.Fatal("intact value rejected")
	}
	if checkValue(v, "k000043") {
		t.Error("value accepted under another key")
	}
	if checkValue(v[:len(v)-1], "k000042") {
		t.Error("truncated value accepted")
	}
	v[len(v)/2] ^= 1
	if checkValue(v, "k000042") {
		t.Error("corrupted value accepted")
	}
	if string(fillValue(make([]byte, 300), "k000042", 3)) == string(fillValue(make([]byte, 300), "k000042", 4)) {
		t.Error("versions of a key are not distinct")
	}
}

func TestKeyspaceSeeded(t *testing.T) {
	a, b, c := newKeyspace(1, 1000, 32, 512, 0.99), newKeyspace(1, 1000, 32, 512, 0.99), newKeyspace(2, 1000, 32, 512, 0.99)
	for i := range a.byRank {
		if a.byRank[i] != b.byRank[i] || a.sizes[i] != b.sizes[i] {
			t.Fatal("same seed, different keyspace")
		}
	}
	same := true
	for i := range a.byRank {
		same = same && a.byRank[i] == c.byRank[i]
	}
	if same {
		t.Error("different seeds, same popularity order")
	}
	for _, n := range a.sizes {
		if n < 32 || n > 512 {
			t.Fatalf("size %d outside [32, 512]", n)
		}
	}
}

// TestSlabClassesMatchEngine stores keys into an engine one at a time
// and requires the class each lands in to be the one slabClasses
// predicts.
func TestSlabClassesMatchEngine(t *testing.T) {
	ks := ipoibLookaside.keyspace(1)
	st := memcached.NewStore(memcached.StoreConfig{MemoryLimit: 64 << 20})
	class := ks.slabClasses(st.Arena())
	for k := 0; k < len(ks.keys); k += 97 {
		st.Set(ks.keys[k], 0, 0, make([]byte, ks.sizes[k]), 0)
		counts := st.ItemsPerClass()
		if counts[class(k)] != 1 {
			t.Fatalf("key %d (value %d B): predicted class %d, engine holds %v", k, ks.sizes[k], class(k), counts)
		}
		st.Delete(ks.keys[k], 0)
	}
}

// TestWarmUpCoversEveryClass runs the ipoib-lookaside seed on which
// populating the hot set alone left a slab class without a page on one
// server, so that 5 sets of every trial failed, and requires none to
// fail.
func TestWarmUpCoversEveryClass(t *testing.T) {
	trials, err := ipoibLookaside.trials(96, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr := trials[0]; tr.fails != 0 {
		t.Errorf("%d of %d ops failed", tr.fails, tr.ops)
	}
}

func TestLeafPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simnet.(*Resource).Acquire":                    "simnet",
		"repro/internal/simnet.(*Mailbox[go.shape.struct {}]).TryRecv": "simnet",
		"repro/internal/memcached.(*Store).Get.func1":                  "memcached",
		"runtime.mallocgc":                                               "runtime",
		"internal/runtime/syscall.Syscall6":                              "runtime",
		"main.(*simRun).pipeStep":                                        "main",
		"repro/internal/mcclient.(*ucrPipeline).startGet[...]":           "mcclient",
		"sync.(*Mutex).lockSlow":                                         "sync",
		"repro/internal/verbs.(*QP).post":                                "verbs",
		"repro/internal/ucr.(*Context).dispatch":                         "ucr",
		"repro/internal/sockstream.(*Conn).Write":                        "sockstream",
		"repro/internal/ring.(*Ring).Lookup":                             "ring",
		"repro/internal/mcclient.(*Client).Get":                          "mcclient",
		"encoding/binary.Uvarint":                                        "binary",
		"repro/internal/simnet.NewMailbox[go.shape.*repro/internal/x.T]": "simnet",
	} {
		if got := leafPackage(fn); got != want {
			t.Errorf("leafPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestCPUProfileBuckets(t *testing.T) {
	tr := newTracer()
	tr.startCPU()
	burn(300 * time.Millisecond)
	if err := tr.stopCPU(); err != nil {
		t.Fatal(err)
	}
	s := tr.samples
	if s.total == 0 {
		t.Fatal("no samples decoded")
	}
	// Test binaries name package main by its import path.
	if share := s.share(s.pkg["main"] + s.pkg["perfbench"]); share < 0.5 {
		t.Errorf("main self-CPU share %.2f of %d samples, want most", share, s.total)
	}
}

// TestMetricTables keeps BENCHMARK.json and the metric tables the
// command reports in step.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricName, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the command, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: command has %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
