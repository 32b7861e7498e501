// Command mcbench regenerates the paper's evaluation figures (Figs 3–6)
// on the simulated clusters and prints each panel as a table or CSV.
//
// Usage:
//
//	mcbench [-figure fig3a] [-csv] [-ops N] [-list] [-speedups]
//	        [-stripes N] [-scaling] [-pipeline [-quick]] [-json[=out.json]]
//
// With no -figure, every panel is produced. -scaling appends the
// multi-core workers x stripes sweep; -pipeline runs the windowed
// in-flight depth sweep instead of the figures (-quick trims it for
// CI); -json additionally writes every panel (and the sweep) as one
// machine-readable report — bare -json streams it to stdout (tables
// move to stderr), -json=path writes a file.
//
// -quick with no sweep selector runs the perf-gate suite: the trimmed
// pipeline and connection-scaling sweeps in one report, the shape
// cmd/mcgate consumes:
//
//	mcbench -quick -json | mcgate -baseline BENCH_4.json -baseline BENCH_7.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// report is the -json payload: everything the run produced, in order.
type report struct {
	OpsPerPoint int                    `json:"ops_per_point"`
	Stripes     int                    `json:"stripes,omitempty"`
	Figures     []*bench.Figure        `json:"figures,omitempty"`
	Scaling     []bench.ScalingPoint   `json:"scaling,omitempty"`
	Pipeline    []bench.PipelinePoint  `json:"pipeline,omitempty"`
	OneSided    *bench.OneSidedReport  `json:"onesided,omitempty"`
	ConnScale   *bench.ConnScaleReport `json:"connscale,omitempty"`
	Fleet       []bench.FleetPoint     `json:"fleet,omitempty"`
}

// runFleet produces the fleet-scale sweep (N servers, 10N replicated
// pipelined clients, one join per cell). -quick trims to the smoke cell.
func runFleet(cfg bench.RunConfig, quick bool) []bench.FleetPoint {
	pts, err := bench.FleetSweep(clusterProfile("B"), bench.FleetCounts(quick), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: fleet: %v\n", err)
		os.Exit(1)
	}
	return pts
}

// runPipeline produces the window-depth sweep (single connection,
// closed loop, cluster B). -quick trims the axes for CI smoke runs.
func runPipeline(cfg bench.RunConfig, quick bool) []bench.PipelinePoint {
	p := clusterProfile("B")
	pts, err := bench.PipelineSweep(p,
		[]cluster.Transport{cluster.UCRIB, cluster.IPoIB},
		bench.PipelineDepths(quick), bench.PipelineSizes(quick), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: pipeline: %v\n", err)
		os.Exit(1)
	}
	return pts
}

// runWriteReply produces the write-reply crossover sweep: the pipelined
// GET matrix on UCR-IB, each cell measured with the write-based reply
// path off and on (BENCH_9).
func runWriteReply(cfg bench.RunConfig, quick bool) []bench.PipelinePoint {
	pts, err := bench.WriteReplySweep(clusterProfile("B"),
		bench.PipelineDepths(quick), bench.WriteReplySizes(quick), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: wrreply: %v\n", err)
		os.Exit(1)
	}
	return pts
}

// runScaling produces the workers x stripes grid (small gets and the
// interleaved mix, 16 closed-loop clients on UCR-IB, cluster B).
func runScaling(cfg bench.RunConfig) []bench.ScalingPoint {
	p := clusterProfile("B")
	pts, err := bench.ScalingSweep(p, cluster.UCRIB,
		[]int{1, 2, 4, 8}, []int{1, 2, 4, 8}, 16,
		[]bench.Mix{bench.MixGet, bench.MixInterleaved}, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: scaling: %v\n", err)
		os.Exit(1)
	}
	return pts
}

// writeJSON dumps the report, indented, to path ("-" = stdout).
func writeJSON(path string, rep report) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		data = append(data, '\n')
		if path == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: json: %v\n", err)
		os.Exit(1)
	}
}

// jsonFlag is the optional-value -json flag: bare -json means "stream
// the report to stdout" (so mcbench can feed mcgate over a pipe),
// -json=path writes a file.
type jsonFlag struct {
	set  bool
	path string
}

func (f *jsonFlag) String() string   { return f.path }
func (f *jsonFlag) IsBoolFlag() bool { return true }
func (f *jsonFlag) Set(s string) error {
	f.set = true
	if s == "" || s == "true" || s == "-" {
		f.path = "-"
	} else {
		f.path = s
	}
	return nil
}

// runAblations prints the design-choice studies from DESIGN.md.
func runAblations(cfg bench.RunConfig) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		os.Exit(1)
	}

	eager, err := bench.AblationEagerThreshold(16*1024, []int{1024, 4096, 8192, 16384, 65536}, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(bench.AblationResultString("eager threshold sweep: 16KB gets, cluster B (mean latency)", eager, "us"))

	workers, err := bench.AblationWorkerCount([]int{1, 2, 4, 8}, 16, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(bench.AblationResultString("worker threads: 16 clients, 4B gets, cluster B (aggregate)", workers, "KTPS"))

	poll, ev, err := bench.AblationPollingVsEvents(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# CQ polling vs events (64B gets, cluster B)\npolling  %.2f us\nevents   %.2f us\n", poll, ev)

	rc, ud, err := bench.AblationRCvsUD(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# RC vs UD endpoints (64B gets, cluster B)\nRC       %.2f us\nUD       %.2f us\n", rc, ud)

	nullUs, complUs, _, acks, err := bench.AblationCounterAcks(cfg.OpsPerPoint)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# counter acks (UCR eager echo)\nNULL counters        %.2f us, 0 acks\ncompletion counter   %.2f us, %d acks\n", nullUs, complUs, acks)

	p := clusterProfile("B")
	mg, err := bench.MGetSweep(p, p.Transports, 16, 64, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println("# mget batching: 16 keys x 64B, cluster B")
	for _, r := range mg {
		fmt.Printf("%-8s 16 singles %8.2f us   one mget %8.2f us   (%.1fx)\n", r.Transport, r.SinglesUs, r.BatchedUs, r.Improvement)
	}

	scale, err := bench.ClientScaling(p, "UCR-IB", []int{4, 8, 16, 32}, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(bench.AblationResultString("client scaling: UCR-IB 4B gets, cluster B (aggregate)", scale, "KTPS"))

	perEP, srq, err := bench.SRQFootprint(p, 32, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# receive-buffer footprint at 32 clients (server total, cluster B)\nper-endpoint windows  %8d KB\nshared receive queue  %8d KB\n",
		perEP/1024, srq/1024)

	fmt.Println("# latency jitter: 64B gets, 500 samples, cluster B (us)")
	for _, tr := range p.Transports {
		rec, err := bench.JitterPoint(p, tr, 64, 500, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-8s min %7.2f  mean %7.2f  p99 %7.2f  max %7.2f  spread %7.2f\n",
			tr, rec.Min(), rec.Mean(), rec.Percentile(99), rec.Max(), rec.Jitter())
	}
}

// runFaultSweep prints the drop% x transport resilience table: every
// recovery layer (RC retransmission, socket RTO, client retry+backoff)
// active over a seeded lossy fabric.
func runFaultSweep(cfg bench.RunConfig) {
	p := clusterProfile("B")
	cells, err := bench.FaultSweep(p, p.Transports, []float64{0, 1, 5, 10}, 64, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: fault sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("# fault sweep: 64B gets, cluster B, seeded per-pair drop streams")
	fmt.Print(bench.FaultSweepString(cells))
}

func main() {
	var (
		figID     = flag.String("figure", "", "panel id to run (e.g. fig3a); empty = all")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		ops       = flag.Int("ops", 50, "measured operations per point")
		list      = flag.Bool("list", false, "list available panels and exit")
		speedups  = flag.Bool("speedups", false, "append UCR-vs-baseline speedup factors")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations instead of the figures")
		faults    = flag.Bool("faults", false, "run the fault-injection sweep instead of the figures")
		stripes   = flag.Int("stripes", 0, "cache-engine lock stripes for figure runs (0 = deployment default)")
		scaling   = flag.Bool("scaling", false, "append the multi-core workers x stripes sweep")
		pipeline  = flag.Bool("pipeline", false, "run the pipelined window-depth sweep instead of the figures")
		wrreply   = flag.Bool("wrreply", false, "run the write-reply crossover sweep (pipelined GETs, write-based replies off vs on) instead of the figures")
		onesided  = flag.Bool("onesided", false, "run the one-sided GET vs AM GET sweep instead of the figures")
		connscale = flag.Bool("connscale", false, "run the connection-scalability sweep (rc vs shared-SRQ serving) instead of the figures")
		fleet     = flag.Bool("fleet", false, "run the fleet-scale sweep (N servers, 10N replicated clients, churn) instead of the figures")
		quick     = flag.Bool("quick", false, "with -pipeline/-onesided/-connscale/-fleet: trimmed axes for a CI smoke run; alone: the perf-gate suite")
	)
	var jf jsonFlag
	flag.Var(&jf, "json", "also write the run as a JSON report: bare -json = stdout, -json=path = file")
	flag.Parse()

	// With JSON streaming to stdout, the human tables move to stderr so
	// a pipe into mcgate sees only the report.
	tables := os.Stdout
	if jf.set && jf.path == "-" {
		tables = os.Stderr
	}

	if *quick && !*pipeline && !*wrreply && !*onesided && !*connscale && !*fleet && !*ablations && !*faults && !*list && *figID == "" {
		// Perf-gate suite: the trimmed pipeline, connection-scaling, and
		// fleet sweeps in one report (cmd/mcgate compares the cells it
		// shares with each -baseline file).
		rep := report{OpsPerPoint: *ops}
		rep.Pipeline = runPipeline(bench.RunConfig{OpsPerPoint: *ops}, true)
		fmt.Fprint(tables, bench.PipelineTable(rep.Pipeline))
		csRep, err := bench.ConnScaleSweep(clusterProfile("B"), 24, bench.RunConfig{OpsPerPoint: *ops})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: connscale: %v\n", err)
			os.Exit(1)
		}
		rep.ConnScale = csRep
		fmt.Fprint(tables, bench.ConnScaleTable(csRep))
		rep.Fleet = runFleet(bench.RunConfig{OpsPerPoint: *ops}, true)
		fmt.Fprint(tables, bench.FleetTable(rep.Fleet))
		if jf.set {
			writeJSON(jf.path, rep)
		}
		return
	}

	if *fleet {
		rep := report{OpsPerPoint: *ops}
		rep.Fleet = runFleet(bench.RunConfig{OpsPerPoint: *ops}, *quick)
		fmt.Fprint(tables, bench.FleetTable(rep.Fleet))
		if jf.set {
			writeJSON(jf.path, rep)
		}
		return
	}

	if *pipeline {
		rep := report{OpsPerPoint: *ops}
		rep.Pipeline = runPipeline(bench.RunConfig{OpsPerPoint: *ops}, *quick)
		fmt.Fprint(tables, bench.PipelineTable(rep.Pipeline))
		if jf.set {
			writeJSON(jf.path, rep)
		}
		return
	}

	if *wrreply {
		rep := report{OpsPerPoint: *ops}
		rep.Pipeline = runWriteReply(bench.RunConfig{OpsPerPoint: *ops}, *quick)
		fmt.Fprint(tables, bench.PipelineTable(rep.Pipeline))
		if jf.set {
			writeJSON(jf.path, rep)
		}
		return
	}

	if *onesided {
		sizes := bench.OneSidedSizes()
		if *quick {
			sizes = []int{64, 4096, 65536}
		}
		osRep, err := bench.OneSidedSweep(sizes, bench.RunConfig{OpsPerPoint: *ops})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: onesided: %v\n", err)
			os.Exit(1)
		}
		rep := report{OpsPerPoint: *ops, OneSided: osRep}
		fmt.Fprint(tables, bench.OneSidedTable(osRep))
		if jf.set {
			writeJSON(jf.path, rep)
		}
		return
	}

	if *connscale {
		tpsClients := 100
		if *quick {
			tpsClients = 24
		}
		csRep, err := bench.ConnScaleSweep(clusterProfile("B"), tpsClients, bench.RunConfig{OpsPerPoint: *ops})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: connscale: %v\n", err)
			os.Exit(1)
		}
		rep := report{OpsPerPoint: *ops, ConnScale: csRep}
		fmt.Fprint(tables, bench.ConnScaleTable(csRep))
		if jf.set {
			writeJSON(jf.path, rep)
		}
		return
	}

	if *ablations {
		runAblations(bench.RunConfig{OpsPerPoint: *ops})
		return
	}

	if *faults {
		runFaultSweep(bench.RunConfig{OpsPerPoint: *ops})
		return
	}

	if *list {
		for _, spec := range bench.Figures {
			fmt.Printf("%-7s cluster %s  %s\n", spec.ID, spec.Cluster, spec.Title)
		}
		return
	}

	cfg := bench.RunConfig{OpsPerPoint: *ops}
	cfg.Deploy.Stripes = *stripes
	specs := bench.Figures
	if *figID != "" {
		spec, ok := bench.FigureByID(*figID)
		if !ok {
			fmt.Fprintf(os.Stderr, "mcbench: unknown figure %q (try -list)\n", *figID)
			os.Exit(1)
		}
		specs = []bench.FigureSpec{spec}
	}

	rep := report{OpsPerPoint: *ops, Stripes: *stripes}
	for _, spec := range specs {
		fig, err := spec.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		rep.Figures = append(rep.Figures, fig)
		var werr error
		if *csv {
			werr = bench.WriteCSV(os.Stdout, fig)
		} else {
			werr = bench.WriteTable(os.Stdout, fig)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "mcbench: write: %v\n", werr)
			os.Exit(1)
		}
		if *speedups {
			for _, base := range fig.SeriesOrder {
				if base == "UCR-IB" {
					continue
				}
				factors := fig.SpeedupOver("UCR-IB", base)
				fmt.Printf("speedup UCR-IB vs %s:", base)
				for _, f := range factors {
					if fig.Unit == "KTPS" && f > 0 {
						// Throughput: higher is better, so invert.
						f = 1 / f
					}
					fmt.Printf(" %.1fx", f)
				}
				fmt.Println()
			}
		}
		fmt.Println()
	}

	if *scaling {
		// The scaling sweep sets its own stripe axis; the -stripes flag
		// only shapes the figure runs above.
		rep.Scaling = runScaling(bench.RunConfig{OpsPerPoint: *ops})
		fmt.Fprint(tables, bench.ScalingTable(rep.Scaling))
		fmt.Println()
	}

	if jf.set {
		writeJSON(jf.path, rep)
	}
}

// clusterProfile resolves a profile by name for the ablations.
func clusterProfile(name string) *cluster.Profile { return cluster.ProfileByName(name) }
