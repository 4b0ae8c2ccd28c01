.PHONY: check check-race check-dist chaos test build vet bench bench-smoke bench-micro bench-agg bench-plan bench-decomp bench-fsm bench-sched prof-sched bench-graph fuzz-agg fuzz-wire fuzz-plan fuzz-decomp fuzz-graph

check:
	./scripts/check.sh

# Distributed-deployment verification: builds the fractal and fractal-worker
# binaries and runs the distributed differential suite (TCP loopback
# workers, real worker OS processes, SIGKILL-mid-step recovery; results must
# match the in-process engine bit for bit).
check-dist:
	./scripts/check_dist.sh

# Full test suite under the race detector. CI runs this as a dedicated job
# so the main check stays fast; the retry/fault-injection paths are the
# heaviest concurrency in the tree and must stay race-clean. Enumerator
# stacks are unsynchronized by design: sched's TestStealGrantStress (every
# deployment shape × stealing mode × 50 hub-skewed graphs) is where a second
# goroutine touching one would show up.
check-race:
	go test -race ./...

# Seeded fault-schedule smoke: the chaos differential suite (worker severed
# at step start / during quiescence / during aggregation ship; results must
# match the fault-free baselines bit for bit) over a larger seed pool than
# the default `go test` run. Runtime stays bounded: each seed is one small
# application run with sub-second loss-detection timeouts.
CHAOS_SEEDS ?= 6
chaos:
	FRACTAL_CHAOS_SEEDS=$(CHAOS_SEEDS) go test -run 'TestChaos' -count=1 ./internal/apps/

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem ./...

# Extension-kernel and set-intersection microbenchmarks (EXPERIMENTS.md).
bench-micro:
	go test -run=NONE -bench='Extensions|Enumerate|Intersect' -benchmem \
		./internal/subgraph/ ./internal/graph/

# Aggregation-pipeline microbenchmarks: allocation-free domain supports and
# the wire codec against the retained seed oracle (gob, test-side only;
# EXPERIMENTS.md), then the step tail end to end — the fsm_ml analog's level
# 3 from "cores idle" to "support3 committed", one worker with two cores on
# the loopback and two one-core workers over TCP: B/op and allocs/op of both
# ends, and the frames one tail ships (8.7 and 13.8 MB/op in 1 and 2 frames
# before the tail became an ordered fold, PR 19). CI runs this with
# BENCHTIME=1x as a smoke test.
bench-agg:
	go test -run=NONE -bench='DomainSupport|AggEncode' -benchtime=$(BENCHTIME) -benchmem \
		./internal/agg/
	go test -run=NONE -bench='^BenchmarkStepTail$$' -benchtime=$(BENCHTIME) -benchmem ./internal/sched/

# The repository benchmark (BENCHMARK.json, benchmark/) is a module of its
# own, outside `go build ./...`: an internal rename can break it unseen.
# This vets and tests it and runs every workload once at quick size — the
# four binaries it builds, every flag it passes and every internal name it
# imports — in about ten seconds.
bench-smoke:
	go vet -C benchmark .
	go test -C benchmark .
	go run -C benchmark . -seed 1 -quick -trace 0

# Compiled-plan engines against the canonical-check enumeration paths:
# motif and clique counting end to end (EXPERIMENTS.md). The canon columns
# are the test-side oracles (Listing 1 for motifs, Listing 2 for cliques),
# the KClist column Listing 7's custom enumerator. CI runs this with
# BENCHTIME=1x as a smoke test.
BENCHTIME ?= 1s
bench-plan:
	go test -run=NONE -bench='^Benchmark(Motifs(Plan|Canon)|Cliques(Plan|Canon|KClist))$$' \
		-benchtime=$(BENCHTIME) -benchmem ./internal/apps/

# Decomposition engine against the pure plan fleet: k=4/k=5 motif counting
# end to end through Motifs' engine argument (auto, which sweeps every
# decomposable pattern at k=4 and 5, and plan; EXPERIMENTS.md §14), and the
# induced conversion's SpanningCounts matrix at k=5 and 6. CI runs this with
# BENCHTIME=1x as a smoke test.
bench-decomp:
	go test -run=NONE -bench='^(BenchmarkMotifs(Auto|Plan)(K5)?|BenchmarkSpanningCounts)$$' \
		-benchtime=$(BENCHTIME) -benchmem ./internal/apps/ ./internal/pattern/

# FSM end to end on the repository benchmark's fsm_ml analog
# (SkewLabels(BarabasiAlbert(4500,2),37), support 50, 3 edges), in-process on
# two cores: ns/op is one whole mining job, B/op and allocs/op what pattern
# labelling and aggregation cost it, keys/level3 the classes level 3
# aggregates before the support filter. 12.3 MB, 64 k allocs and 212 keys a
# job; at the parent of PR 20 — every embedding of a frequent prefix
# aggregated, a Class and a Perm on the heap per quick pattern — 30.2 MB,
# 474 k allocs and some 3 250 keys (733 MB/job before labelling was paid per
# class, PR 16). CI runs this with BENCHTIME=1x as a smoke test.
bench-fsm:
	go test -run=NONE -bench='^BenchmarkFSM$$' -benchtime=$(BENCHTIME) -benchmem ./internal/apps/

# The scheduler's own cost: plan-engine 5-motifs on the repository benchmark's
# motifs5_sl analog (Community(45, 50, 9, 1.2), one label) on one core and on
# two — cheap kernels, so the DFS loop, the enumerator stack and stealing show
# — plus the stack's push/drain/pop cycle (the benchmark's enumerator.cycle_ns
# probe). allocs/op of the motifs rows is per job and must not scale with
# subgraphs (2.4 M/job before stacks became private, PR 17). CI runs this
# with BENCHTIME=1x as a smoke test.
bench-sched:
	go test -run=NONE -bench='^BenchmarkSchedMotifs5$$' -benchtime=$(BENCHTIME) -benchmem ./internal/apps/
	go test -run=NONE -bench='^BenchmarkStackCycle$$' -benchmem ./internal/enumerator/

# Where the scheduler's CPU goes (ROADMAP item 1, "evidence first"): the same
# benchmark under -cpuprofile, then the samples whose stacks pass through
# internal/enumerator or internal/sched, flat top 10. The profile and the
# test binary stay in PROF_DIR, outside the tree, for `go tool pprof`.
PROF_DIR ?= /tmp/fractal-prof
prof-sched:
	mkdir -p $(PROF_DIR)
	go test -run=NONE -bench='^BenchmarkSchedMotifs5$$' -benchtime=$(BENCHTIME) \
		-cpuprofile $(PROF_DIR)/sched.prof -o $(PROF_DIR)/apps.test ./internal/apps/
	go tool pprof -top -nodecount=10 -focus='enumerator\.|sched\.' $(PROF_DIR)/apps.test $(PROF_DIR)/sched.prof

# CSR + .fgr storage microbenchmarks: mmap load vs edge-list parse (with
# live- and peak-heap deltas and alloc-B/edge, the bytes a load allocates per
# edge of the graph), Builder.Build (alloc-B/edge against held-B/edge: 16 of
# either are the adjacency) and the edge-list writer at the repository
# benchmark's small_jobs_el size, neighbor-scan throughput of the
# packed CSR arrays vs per-vertex slices, the decode/validation pass, and the
# packed label-span accessors (AttributeScan pins the stride-1 fast path;
# EXPERIMENTS.md). CI runs this with BENCHTIME=1x as a smoke test.
bench-graph:
	go test -run=NONE -bench='FGRLoad|Build|WriteEdgeList|NeighborScan|FGRDecode|AttributeScan' \
		-benchtime=$(BENCHTIME) -benchmem ./internal/graph/

# Short fuzz of the aggregation wire codec (decoders must fail cleanly on
# arbitrary bytes) and of the master-side fold over frame sequences (a typed
# error or exactly what decoding and merging every frame gives, never a key
# folded twice).
fuzz-agg:
	go test -run=NONE -fuzz=FuzzBinaryCodec -fuzztime=10s ./internal/agg/
	go test -run=NONE -fuzz=FuzzFoldFrames -fuzztime=10s ./internal/agg/

# Short fuzz of every wire decoder, one layer each (DESIGN.md §12, "Wire
# format"): control-message bodies, aggregation payloads and frame sequences,
# the pattern form. Arbitrary bytes must fail with a *wire.Error, never panic
# or overallocate, and whatever decodes must survive a round trip. A job spec
# that decodes is then built by every registered app (FuzzJobSpec): a job or
# an error, never a panic.
fuzz-wire:
	go test -run=NONE -fuzz=FuzzDecodeMessage -fuzztime=10s ./internal/sched/
	go test -run=NONE -fuzz=FuzzJobSpec -fuzztime=10s ./internal/sched/
	go test -run=NONE -fuzz=FuzzBinaryCodec -fuzztime=10s ./internal/agg/
	go test -run=NONE -fuzz=FuzzFoldFrames -fuzztime=10s ./internal/agg/
	go test -run=NONE -fuzz=FuzzPatternFromBinary -fuzztime=10s ./internal/pattern/

# Short fuzz of the .fgr decoder over the checked-in corruption corpus
# (malformed graphs must yield typed errors, never panics or over-reads), of
# the text loaders against the retained seed loaders (same graph, byte for
# byte, or a *ParseError), and of the set-operation kernels pattern
# extension and KClist run (IntersectSorted, DiffSorted and Gallop against
# naive references).
fuzz-graph:
	go test -run=NONE -fuzz=FuzzLoadFGR -fuzztime=10s ./internal/graph/
	go test -run=NONE -fuzz=FuzzLoadEdgeList -fuzztime=10s ./internal/graph/
	go test -run=NONE -fuzz=FuzzIntersect -fuzztime=10s ./internal/graph/
	go test -run=NONE -fuzz=FuzzGallop -fuzztime=10s ./internal/graph/

# Short fuzz of the pattern-plan compiler (every connected pattern must
# compile to a total, restriction-consistent plan) and of the sub-pattern
# generator FSM prunes on (connected, one edge fewer, classes independent of
# the numbering, EverySubClass asks exactly them).
fuzz-plan:
	go test -run=NONE -fuzz=FuzzPlanCompile -fuzztime=10s ./internal/pattern/
	go test -run=NONE -fuzz=FuzzSubPatterns -fuzztime=10s ./internal/pattern/

# Short fuzz of the decomposition rule search (total, deterministic, every
# term bound to a generated core subpattern).
fuzz-decomp:
	go test -run=NONE -fuzz=FuzzDecompose -fuzztime=10s ./internal/pattern/
