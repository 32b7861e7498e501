# Test tiers. tier1 is the gate every change must keep green; it also
# builds, vets and tests the perfbench module, which has its own go.mod
# and so is outside the root ./... pattern. tier2 adds gofmt, vet and
# the race detector (the mcclient ejection path is exercised
# concurrently).

.PHONY: tier1 tier2 test perfgate memcheck memcheck-lossy memcheck-onesided memcheck-onesided-lossy \
        memcheck-srq memcheck-srq-lossy \
        memcheck-wrreply memcheck-wrreply-lossy memcheck-fleet memcheck-fleet-lossy \
        mutations fuzz-smoke

tier1:
	go build ./...
	go test ./...
	cd perfbench && go vet ./... && go test ./...

tier2:
	test -z "$$(gofmt -l .)"
	go vet ./...
	go test -race ./...

test: tier1 tier2

# Model-checking sweeps (see EXPERIMENTS.md "Model checking the cache").
MEMCHECK_SEEDS ?= 50

memcheck:
	go run ./cmd/mccheck -transport both -seeds $(MEMCHECK_SEEDS)
	go run ./cmd/mccheck -transport both -seeds $(MEMCHECK_SEEDS) -nobursts
	go run ./cmd/mccheck -transport both -seeds $(MEMCHECK_SEEDS) -pressure

memcheck-lossy:
	go run ./cmd/mccheck -transport both -seeds $(MEMCHECK_SEEDS) -faults

# One-sided GET sweeps (UCR-IB only: the path rides RDMA reads).
memcheck-onesided:
	go run ./cmd/mccheck -transport UCR-IB -seeds $(MEMCHECK_SEEDS) -onesided

memcheck-onesided-lossy:
	go run ./cmd/mccheck -transport UCR-IB -seeds $(MEMCHECK_SEEDS) -onesided -faults

# Connection-scalability sweeps (UCR-IB only): shared-SRQ serving. Each
# sweep fails if it never actually drove the armed datapath (vacuity
# guard — see cmd/mccheck).
memcheck-srq:
	go run ./cmd/mccheck -transport UCR-IB -seeds $(MEMCHECK_SEEDS) -srq

memcheck-srq-lossy:
	go run ./cmd/mccheck -transport UCR-IB -seeds $(MEMCHECK_SEEDS) -srq -faults

# Write-based reply sweeps (UCR-IB only): RDMA-write replies into the
# client's slot arena. Fails on vacuity if no reply rode the write path.
memcheck-wrreply:
	go run ./cmd/mccheck -transport UCR-IB -seeds $(MEMCHECK_SEEDS) -wrreply

memcheck-wrreply-lossy:
	go run ./cmd/mccheck -transport UCR-IB -seeds $(MEMCHECK_SEEDS) -wrreply -faults

# Fleet sweeps (both transports): replicated churn-capable cluster
# checked against the per-server ownership model. The vacuity guards
# fail a sweep where read repair never ran or churn moved no keyspace.
memcheck-fleet:
	go run ./cmd/mccheck -fleet -transport both -seeds $(MEMCHECK_SEEDS)

memcheck-fleet-lossy:
	go run ./cmd/mccheck -fleet -transport both -seeds $(MEMCHECK_SEEDS) -faults

# Checker validation: every seeded store mutation must be caught.
MUTATIONS = mut_append_nocas mut_get_skip_expiry mut_cas_ignore_id \
            mut_delete_noop mut_add_clobbers mut_proto_drop_flags \
            mut_onesided_stale mut_srq_misroute mut_dup_ack \
            mut_wrreply_stale mut_ring_stale mut_replica_skip

mutations:
	@for m in $(MUTATIONS); do \
		echo "== $$m"; \
		go run -tags $$m ./cmd/mccheck -transport both -seeds 10 -expect-violation || exit 1; \
	done

FUZZTIME ?= 30s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzTextProtocol$$' -fuzztime $(FUZZTIME) ./internal/memcached
	go test -run '^$$' -fuzz '^FuzzAMCodecs$$' -fuzztime $(FUZZTIME) ./internal/memcached

# Perf-regression gate: a quick mcbench run (trimmed pipeline +
# connection-scaling sweeps) compared against the checked-in BENCH_*
# trajectory. Tolerances (see cmd/mcgate flags for the full semantics):
#   throughput  -ktps-tol 0.10  — fail if fresh KTPS < baseline x 0.90
#   allocations -alloc-tol 0.9  — fail if fresh allocs/op > baseline + 0.9
#                                 (any ADDED per-op allocation is +1.0 and fails;
#                                 amortized pool-growth noise stays under ~0.8)
#   memory      -mem-tol  0.10  — fail if fresh bytes > baseline x 1.10
# BENCH_4/BENCH_7 pin the pre-batching trajectory (so the gate also
# proves the event-loop server never dips below the old serving path);
# BENCH_8 pins the batched loop's own throughput AND its allocs/op, the
# baseline that catches a quiet return of per-op allocation; BENCH_9
# pins the write-based reply path (gated by the wrreply quick sweep);
# BENCH_10 pins the fleet cell (the quick suite runs the N=10 fleet
# sweep, so a regression in the replicated path fails here alongside
# the BENCH_8/BENCH_9 single-server gates).
perfgate:
	go run ./cmd/mcbench -quick -json | \
	go run ./cmd/mcgate -baseline BENCH_4.json -baseline BENCH_7.json -baseline BENCH_8.json -baseline BENCH_10.json
	go run ./cmd/mcbench -wrreply -quick -ops 300 -json | \
	go run ./cmd/mcgate -baseline BENCH_9.json
