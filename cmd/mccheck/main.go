// mccheck sweeps the memcheck model checker over seeds and transports:
// randomized workloads run against the real server stack in virtual
// time, the recorded history is checked against a reference model, and
// any violation is shrunk to a minimal replayable script.
//
// Typical uses:
//
//	go run ./cmd/mccheck -transport both -seeds 50            # CI sweep
//	go run ./cmd/mccheck -transport UCR-IB -seed 17 -faults   # replay one seed
//	go run ./cmd/mccheck -transport IPoIB -script repro.txt   # replay a shrunk script
//	go run -tags mut_delete_noop ./cmd/mccheck -seeds 10 -expect-violation
//	go run ./cmd/mccheck -fleet -seeds 50                     # fleet-mode sweep
//
// -fleet switches to the fleet checker: a churn-capable replicated
// cluster (joins, graceful leaves, crashes mid-traffic) checked against
// a per-server ownership model instead of the single-server history
// checker. -servers sets the initial member count; -faults, -seeds,
// -seed, -clients, -ops, -script, and -expect-violation compose as
// usual. Fleet sweeps have their own vacuity guards: across a sweep,
// read repair must have run and churn must have moved keyspace.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/memcached"
	"repro/internal/memcheck"
)

func main() {
	var (
		transport = flag.String("transport", "both", "UCR-IB, IPoIB, or both")
		seeds     = flag.Int("seeds", 0, "sweep seeds 1..N (mutually exclusive with -seed)")
		seed      = flag.Uint64("seed", 1, "single seed to run")
		faults    = flag.Bool("faults", false, "lossy fabric (1% drop) with client retries")
		pressure  = flag.Bool("pressure", false, "small cache, large values: constant LRU eviction")
		nobursts  = flag.Bool("nobursts", false, "blocking ops only, TTL mix enabled")
		onesided  = flag.Bool("onesided", false, "arm the one-sided GET path (UCR transport)")
		srq       = flag.Bool("srq", false, "serve from shared receive queues (UCR transport)")
		wrreply   = flag.Bool("wrreply", false, "arm the write-based reply path (UCR transport)")
		fleet     = flag.Bool("fleet", false, "fleet mode: replicated churn-capable cluster against the ownership model")
		servers   = flag.Int("servers", 0, "fleet mode: initial member count (default 4)")
		clients   = flag.Int("clients", 0, "client count (default 3)")
		ops       = flag.Int("ops", 0, "ops per script (default 400)")
		script    = flag.String("script", "", "replay a script file instead of generating from the seed")
		expect    = flag.Bool("expect-violation", false, "invert exit status: fail unless a violation is found (mutation builds)")
		verbose   = flag.Bool("v", false, "print a line per run")
	)
	flag.Parse()

	var trs []cluster.Transport
	switch *transport {
	case "both":
		trs = []cluster.Transport{cluster.UCRIB, cluster.IPoIB}
	case string(cluster.UCRIB):
		trs = []cluster.Transport{cluster.UCRIB}
	case string(cluster.IPoIB):
		trs = []cluster.Transport{cluster.IPoIB}
	default:
		fmt.Fprintf(os.Stderr, "mccheck: unknown transport %q\n", *transport)
		os.Exit(2)
	}

	if muts := memcached.ActiveMutations(); muts != nil {
		fmt.Printf("mccheck: store mutations active: %v\n", muts)
		for _, m := range muts {
			if m == "mut_ring_stale" || m == "mut_replica_skip" {
				// Both fleet mutations only fire on the replicated routing
				// path; arm fleet mode so -expect-violation can catch them.
				if !*fleet {
					*fleet = true
					fmt.Printf("mccheck: -fleet implied by %s\n", m)
				}
			}
			if m == "mut_onesided_stale" && !*onesided {
				// The mutation only fires on the one-sided path; arm it so
				// the -expect-violation build can catch it.
				*onesided = true
				fmt.Println("mccheck: -onesided implied by mut_onesided_stale")
			}
			if m == "mut_srq_misroute" && !*srq {
				*srq = true
				fmt.Println("mccheck: -srq implied by mut_srq_misroute")
			}
			if m == "mut_wrreply_stale" && !*wrreply {
				// The stale-window mutation only fires on the write-based
				// reply path; arm it so -expect-violation can catch it.
				*wrreply = true
				fmt.Println("mccheck: -wrreply implied by mut_wrreply_stale")
			}
			if m == "mut_dup_ack" && !*faults {
				// The dup-accept only fires when late duplicate replies
				// exist, which takes AM re-sends after timeouts on a lossy
				// fabric.
				*faults = true
				fmt.Println("mccheck: -faults implied by mut_dup_ack")
			}
		}
	}

	seedList := []uint64{*seed}
	if *seeds > 0 {
		seedList = seedList[:0]
		for s := uint64(1); s <= uint64(*seeds); s++ {
			seedList = append(seedList, s)
		}
	}

	if *fleet {
		runFleetMode(trs, seedList, *servers, *clients, *ops, *faults, *script, *expect, *verbose)
		return
	}

	runs := 0
	ucrRuns := 0
	var srqDemux, batchedDrains, writeReplies uint64
	for _, tr := range trs {
		for _, s := range seedList {
			cfg := memcheck.Config{
				Transport: tr, Seed: s, Faults: *faults, Pressure: *pressure,
				NoBursts: *nobursts, Clients: *clients, Ops: *ops,
				OneSided:     *onesided && tr == cluster.UCRIB,
				SRQ:          *srq && tr == cluster.UCRIB,
				WriteReplies: *wrreply && tr == cluster.UCRIB,
			}
			var res *memcheck.Result
			if *script != "" {
				text, err := os.ReadFile(*script)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mccheck: %v\n", err)
					os.Exit(2)
				}
				sc, err := memcheck.ParseScript(string(text))
				if err != nil {
					fmt.Fprintf(os.Stderr, "mccheck: %s: %v\n", *script, err)
					os.Exit(2)
				}
				res = memcheck.RunScript(sc, cfg)
			} else {
				res = memcheck.Run(cfg)
			}
			runs++
			srqDemux += res.SRQDemux
			batchedDrains += res.BatchedDrains
			writeReplies += res.WriteReplies
			if tr == cluster.UCRIB {
				ucrRuns++
			}
			if res.Violation != nil {
				fmt.Print(res.Report)
				if *expect {
					// One confirmed detection is enough for a mutation build.
					fmt.Printf("mccheck: violation found as expected (transport=%s seed=%d)\n", tr, s)
					os.Exit(0)
				}
				os.Exit(1)
			}
			if *verbose {
				fmt.Printf("mccheck: PASS transport=%s seed=%d records=%d\n", tr, s, len(res.History))
			}
		}
	}
	if *expect {
		fmt.Printf("mccheck: FAIL: expected a violation, %d runs all passed\n", runs)
		os.Exit(1)
	}
	// Vacuity guards: a sweep that armed a datapath but never drove it
	// validated nothing — fail loudly rather than report a hollow PASS.
	if *srq && srqDemux == 0 {
		fmt.Println("mccheck: FAIL: -srq armed but no SRQ demux decisions recorded (vacuous sweep)")
		os.Exit(1)
	}
	if *wrreply && writeReplies == 0 {
		fmt.Println("mccheck: FAIL: -wrreply armed but no reply was posted as an RDMA write (vacuous sweep)")
		os.Exit(1)
	}
	// The batch-scheduled serving loop must actually engage on UCR runs
	// with pipelined bursts: the generator emits concurrent windows
	// (unless -nobursts), so across a sweep at least one worker drain
	// must have harvested ≥2 completions. Zero would mean the checker
	// was exercising a request-at-a-time loop, not the batched one.
	if ucrRuns > 0 && !*nobursts && *script == "" && batchedDrains == 0 {
		fmt.Println("mccheck: FAIL: UCR sweep with bursts but no batched CQ drains recorded (batch path vacuous)")
		os.Exit(1)
	}
	fmt.Printf("mccheck: PASS %d runs (%s, seeds=%d, faults=%v, pressure=%v, srq=%v, wrreply=%v; srqDemux=%d batchedDrains=%d writeReplies=%d)\n",
		runs, *transport, len(seedList), *faults, *pressure, *srq, *wrreply, srqDemux, batchedDrains, writeReplies)
}

// runFleetMode sweeps the fleet checker and applies its vacuity guards.
func runFleetMode(trs []cluster.Transport, seedList []uint64, servers, clients, ops int, faults bool, script string, expect, verbose bool) {
	runs := 0
	var repairs uint64
	var moved float64
	var churn int
	for _, tr := range trs {
		for _, s := range seedList {
			cfg := memcheck.FleetConfig{
				Transport: tr, Seed: s, Faults: faults,
				Servers: servers, Clients: clients, Ops: ops,
			}
			var res *memcheck.FleetResult
			if script != "" {
				text, err := os.ReadFile(script)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mccheck: %v\n", err)
					os.Exit(2)
				}
				sc, err := memcheck.ParseScript(string(text))
				if err != nil {
					fmt.Fprintf(os.Stderr, "mccheck: %s: %v\n", script, err)
					os.Exit(2)
				}
				res = memcheck.RunFleetScript(sc, cfg)
			} else {
				res = memcheck.RunFleet(cfg)
			}
			runs++
			repairs += res.Stats.Repairs
			moved += res.Moved
			churn += res.Joins + res.Leaves + res.Crashes
			if res.Violation != nil {
				fmt.Print(res.Report)
				if expect {
					fmt.Printf("mccheck: fleet violation found as expected (transport=%s seed=%d)\n", tr, s)
					os.Exit(0)
				}
				os.Exit(1)
			}
			if verbose {
				fmt.Printf("mccheck: PASS fleet transport=%s seed=%d churn=%d repairs=%d moved=%.4f\n",
					tr, s, res.Joins+res.Leaves+res.Crashes, res.Stats.Repairs, res.Moved)
			}
		}
	}
	if expect {
		fmt.Printf("mccheck: FAIL: expected a fleet violation, %d runs all passed\n", runs)
		os.Exit(1)
	}
	// Vacuity guards: a fleet sweep where replication or churn never ran
	// validated nothing.
	if repairs == 0 {
		fmt.Println("mccheck: FAIL: fleet sweep drove no read repair (vacuous sweep)")
		os.Exit(1)
	}
	if moved <= 0 || churn == 0 {
		fmt.Printf("mccheck: FAIL: fleet sweep churn moved no keyspace (churn=%d moved=%.4f, vacuous sweep)\n", churn, moved)
		os.Exit(1)
	}
	fmt.Printf("mccheck: PASS %d fleet runs (seeds=%d, faults=%v; churn=%d moved=%.4f repairs=%d)\n",
		runs, len(seedList), faults, churn, moved, repairs)
}
