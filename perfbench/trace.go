package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// spanName is a layer boundary the benchmark crosses.
type spanName uint8

const (
	spRing spanName = iota
	spClientGet
	spClientSet
	spTransport
	spIssue
	spWait
	spConnGet
	spConnSet
	nSpanNames
)

var spanNames = [nSpanNames]string{
	spRing:      "mcclient.Client.ServerFor",
	spClientGet: "mcclient.Client.Get",
	spClientSet: "mcclient.Client.Set",
	spTransport: "mcclient.Transport",
	spIssue:     "mcclient.Pipeline.Start",
	spWait:      "mcclient.Future.Wait",
	spConnGet:   "mcserver.get",
	spConnSet:   "mcserver.set",
}

// span is one crossing of a layer boundary: wall ns since the trace
// began, the request it belongs to, and the span that was open when it
// started (its cause), or -1.
type span struct {
	name       spanName
	op         int64
	parent     int32
	start, end int64
}

type spanTok struct {
	name   spanName
	idx    int32
	parent int32
	start  int64
}

// maxSpans bounds the spans a tracer keeps in memory; past it only the
// per-boundary totals are kept.
const maxSpans = 1 << 18

// tracer records spans in memory from one goroutine, and CPU profiles
// of the measured phases; write puts both out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32
	// op is the request the next spans belong to.
	op  int64
	acc [nSpanNames]struct{ n, ns int64 }

	profiles [][]byte
	cpu      *bytes.Buffer
	samples  cpuSamples

	// passWall and passOps are the traced pass's measured wall time and
	// op count.
	passWall float64
	passOps  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1024), cur: -1, samples: cpuSamples{pkg: map[string]int64{}}}
}

// fork returns a tracer for another goroutine sharing this one's clock;
// merge folds it back.
func (t *tracer) fork() *tracer {
	f := newTracer()
	f.t0 = t.t0
	return f
}

func (t *tracer) merge(f *tracer) {
	base := int32(len(t.spans))
	for _, s := range f.spans {
		if len(t.spans) == maxSpans {
			break
		}
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
	for i := range t.acc {
		t.acc[i].n += f.acc[i].n
		t.acc[i].ns += f.acc[i].ns
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name spanName) spanTok {
	tok := spanTok{name: name, idx: -1, parent: t.cur, start: t.now()}
	if len(t.spans) < maxSpans {
		tok.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, op: t.op, parent: t.cur, start: tok.start})
		t.cur = tok.idx
	}
	return tok
}

func (t *tracer) end(tok spanTok) {
	end := t.now()
	a := &t.acc[tok.name]
	a.n++
	a.ns += end - tok.start
	if tok.idx >= 0 {
		t.spans[tok.idx].end = end
		t.cur = tok.parent
	}
}

// meanNs is the mean wall ns of the spans named name (0 if none).
func (t *tracer) meanNs(name spanName) float64 {
	a := t.acc[name]
	return ratio(float64(a.ns), float64(a.n))
}

func (t *tracer) startCPU() {
	t.cpu = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(t.cpu); err != nil {
		t.cpu = nil
	}
}

// stopCPU ends the profile started by startCPU and adds its samples.
func (t *tracer) stopCPU() error {
	if t.cpu == nil {
		return fmt.Errorf("CPU profile did not start")
	}
	pprof.StopCPUProfile()
	b := t.cpu.Bytes()
	t.cpu = nil
	t.profiles = append(t.profiles, b)
	return t.samples.add(b)
}

// write puts the spans and CPU profiles under dir.
func (t *tracer) write(dir, prefix string) error {
	if dir == "" {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("idx\tname\top\tparent\tstart_ns\tend_ns\n")
	for i, s := range t.spans {
		fmt.Fprintf(&sb, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.op, s.parent, s.start, s.end)
	}
	if err := writeFile(dir, prefix+".spans.tsv", []byte(sb.String())); err != nil {
		return err
	}
	for i, p := range t.profiles {
		if err := writeFile(dir, fmt.Sprintf("%s.cpu%d.pprof", prefix, i), p); err != nil {
			return err
		}
	}
	return nil
}

// cpuSamples buckets CPU-profile samples by the package of the leaf
// frame (self CPU), and separately counts samples in the Go scheduler
// and the garbage collector.
type cpuSamples struct {
	total, sched, gc int64
	pkg              map[string]int64
}

func (c *cpuSamples) share(n int64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(n) / float64(c.total)
}

// gcFrames are entry points whose callees are garbage-collector work.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.sweepone": true, "runtime.GC": true,
}

// schedFrames are entry points whose runtime callees are goroutine
// scheduling, parking and wake-up.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.park_m": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.mcall": true, "runtime.selectgo": true, "runtime.chansend": true,
	"runtime.chanrecv": true, "runtime.semacquire1": true, "runtime.semrelease1": true,
	"runtime.findRunnable": true, "runtime.wakep": true, "runtime.goschedImpl": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.notetsleepg": true,
	"sync.(*Mutex).lockSlow": true, "sync.(*Mutex).unlockSlow": true,
}

// add decodes one gzipped pprof profile and adds its samples.
func (c *cpuSamples) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		if len(frames) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		c.total += n
		leaf := leafPackage(frames[0])
		c.pkg[leaf] += n
		gc, sched := false, false
		for _, f := range frames {
			gc = gc || gcFrames[f]
			sched = sched || schedFrames[f]
		}
		switch {
		case gc:
			c.gc += n
		case sched && (leaf == "runtime" || leaf == "sync"):
			c.sched += n
		}
	}
	return nil
}

// leafPackage maps a function name to the last element of its package
// path: "repro/internal/simnet.(*Resource).Acquire" → "simnet". The
// runtime's internal packages count as runtime.
func leafPackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	path := fn
	last := fn
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		last = fn[i+1:]
	}
	if i := strings.IndexByte(last, '.'); i >= 0 {
		last = last[:i]
	}
	if strings.HasPrefix(path, "internal/runtime/") || strings.HasPrefix(path, "runtime/internal/") {
		return "runtime"
	}
	return last
}

// profile is the part of a pprof profile.proto the bucketing needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]int64    // function id → name index
	strs    []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// frames lists a sample's function names, leaf first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// parseProfile decodes the fields of profile.proto used here: sample
// (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					for _, x := range appendVarints(nil, wire, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, wire int, v uint64, data []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
