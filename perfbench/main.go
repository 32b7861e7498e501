// Command perfbench is the repository's benchmark: three closed-loop
// memcached workloads, each checked value by value, reporting the
// end-to-end metrics named in BENCHMARK.json (or, with -trace 1, the
// per-layer metrics of a separate traced run) as one JSON line.
//
// It is normally started through run.py, which builds it and
// cmd/mcserver first; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrongValue marks a run in which a hit returned a value that was
// never stored under its key: the result is printed, with correct
// false, and the command exits non-zero.
var errWrongValue = errors.New("wrong value returned")

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	mcserver string
	outDir   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ucr-pipelined-get, ipoib-lookaside or tcp-lookaside")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.mcserver, "mcserver", "", "path of the built cmd/mcserver (tcp-lookaside)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for trace output (spans, CPU profile)")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, err := run(cfg)
	if res != nil {
		printResult(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var w workload
	switch cfg.workload {
	case "ucr-pipelined-get":
		w = ucrPipelinedGet
	case "ipoib-lookaside":
		w = ipoibLookaside
	case "tcp-lookaside":
		if cfg.mcserver == "" {
			return nil, fmt.Errorf("-mcserver is required")
		}
		w = &tcpWorkload{bin: cfg.mcserver}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !cfg.trace {
		o, err := w.measure(cfg.seed, cfg.seconds)
		if o == nil {
			return nil, err
		}
		return o.result(endToEnd), err
	}
	// The traced run: an untraced pass and a traced pass of equal
	// length, so trace.overhead compares like with like.
	base, err := w.measure(cfg.seed, cfg.seconds/2)
	if base == nil {
		return nil, err
	}
	tr := newTracer()
	o, err := w.traced(cfg.seed, cfg.seconds/2, tr)
	if o == nil {
		return nil, err
	}
	o.values["trace.overhead"] = o.wallPerOp / base.wallPerOp
	if werr := tr.write(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)); werr != nil && err == nil {
		err = werr
	}
	return o.result(perLayer), err
}

// workload is one benchmark workload. measure reports the end-to-end
// metrics; traced runs the same loop with spans and the CPU profile on
// and reports the per-layer metrics.
type workload interface {
	measure(seed uint64, seconds float64) (*outcome, error)
	traced(seed uint64, seconds float64, tr *tracer) (*outcome, error)
}

// outcome is what one pass measured.
type outcome struct {
	values                   map[string]float64
	attempted, failed, wrong int64
	// wallPerOp is the pass's measured wall seconds per op, the basis
	// of trace.overhead.
	wallPerOp float64
}

// result reports the named metrics; a metric a workload does not
// exercise reads 0 (per-layer metrics only: every end-to-end metric is
// measured on every workload).
func (o *outcome) result(names []metricName) *result {
	r := &result{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		r.Metrics[n.name] = metric{o.values[n.name], n.unit}
	}
	return r
}

type metricName struct{ name, unit string }

// endToEnd are the metrics a user sees. The serving clock is virtual
// time on the simulated workloads and the wall clock on tcp-lookaside.
var endToEnd = []metricName{
	{"kops", "kops"},      // ops per second on the serving clock, summed over clients
	{"p50_us", "us"},      // per-op latency on the serving clock, issue to settle
	{"p90_us", "us"},      // the tail; p99 is on the # lines (README.md says why)
	{"wall_kops", "kops"}, // ops per wall-clock second
	{"mem_mb", "MB"},      // simulator live heap after GC; mcserver peak RSS
	{"hit_ratio", "ratio"},
	{"ok_ratio", "ratio"}, // 1 - failed/attempted
	{"setup_s", "s"},      // deploy or spawn, plus populate
}

// perLayer are the traced run's metrics (README.md says which
// end-to-end metric each should move).
var perLayer = []metricName{
	{"simnet.cpu_share", "ratio"},
	{"simnet.link_util_max", "ratio"},
	{"runtime.sched_cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"verbs.cpu_share", "ratio"},
	{"verbs.hca_send_util", "ratio"},
	{"verbs.hca_recv_util", "ratio"},
	{"verbs.retransmits", "count"},
	{"ucr.cpu_share", "ratio"},
	{"ucr.msgs_per_op", "count"},
	{"ucr.regcache_hit_ratio", "ratio"},
	{"sockstream.cpu_share", "ratio"},
	{"sockstream.retransmits", "count"},
	{"memcached.cpu_share", "ratio"},
	{"memcached.ops_per_drain", "count"},
	{"memcached.lock_util", "ratio"},
	{"memcached.evictions_per_kop", "count"},
	{"memcached.oom_per_kop", "count"},
	{"memcached.slab_malloced_mb", "MB"},
	{"memcached.store_ns_per_op", "ns"},
	{"memcached.proto_ns_per_cmd", "ns"},
	{"mcclient.cpu_share", "ratio"},
	{"mcclient.issue_wall_ns", "ns"},
	{"mcclient.wait_wall_ns", "ns"},
	{"mcclient.self_wall_ns", "ns"},
	{"mcclient.errors", "count"},
	{"ring.lookup_ns", "ns"},
	{"ring.load_max_over_mean", "ratio"},
	{"cluster.deploy_s", "s"},
	{"cluster.populate_s", "s"},
	{"mcserver.cpu_us_per_op", "us"},
	{"mcserver.evictions_per_kop", "count"},
	{"loadgen.cpu_us_per_op", "us"},
	{"trace.overhead", "ratio"},
}

// cpuShares adds the CPU-profile shares to a traced pass's values.
func cpuShares(v map[string]float64, s *cpuSamples) {
	for _, pkg := range []string{"simnet", "verbs", "ucr", "sockstream", "memcached", "mcclient"} {
		v[pkg+".cpu_share"] = s.share(s.pkg[pkg])
	}
	v["runtime.sched_cpu_share"] = s.share(s.sched)
	v["runtime.gc_cpu_share"] = s.share(s.gc)
}

func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// named is a metric under its workload-specific name (virt_kops,
// tcp_p50_us, ...), printed on a # line before the result.
type named struct {
	name  string
	value float64
	unit  string
}

func printNamed(ms []named) {
	for _, m := range ms {
		fmt.Printf("# %-14s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// writeFile writes data under dir, creating it.
func writeFile(dir, name string, data []byte) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// since reports seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
