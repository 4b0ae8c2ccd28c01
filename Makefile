.PHONY: check check-race check-dist chaos test build vet bench-smoke bench-pair bench-pair-self bench-agg bench-plan bench-decomp bench-fsm bench-sched prof-sched bench-graph fuzz-agg fuzz-wire fuzz-plan fuzz-decomp fuzz-graph fuzz-embedding fuzz-engines

check:
	./scripts/check.sh

# Distributed-deployment verification: builds the fractal and fractal-worker
# binaries and runs the distributed differential suite (goroutine workers of
# a master over TCP loopback, real worker OS processes, SIGKILL-mid-step
# recovery, FuzzEngines' seeds; results must match the in-process engine
# bit for bit).
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

# Aggregation-pipeline microbenchmarks: allocation-free domain supports and
# the wire codec against the retained seed oracle (gob, test-side only;
# EXPERIMENTS.md), then the step tail end to end — the fsm_ml analog's level
# 3 from "cores idle" to "support3 committed", one worker with two cores on
# the loopback and two one-core workers joined to a master over TCP: B/op
# and allocs/op of both ends, and the frames one tail ships (~1.3 and ~2.6
# MB/op in 9 and 15 frames with ~0.8 k allocs/op since shipped values are
# borrowed and only survivors copied; 5.2 and 8.5 MB/op with 41 k and 66 k
# allocs/op before; 8.7 and 13.8 MB/op in 1 and 2 frames before the tail
# became an ordered fold, PR 19). CI's `go test -bench=. -benchtime=1x ./...`
# step runs each once.
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

# A measured claim: the repository benchmark of HEAD against BASE, each
# revision built from a git worktree of its own and running its own
# benchmark/, in N alternating pairs of WORKLOAD (default: every workload) on
# SEED, then one traced run a side. Writes BENCH_<label>.json at the root
# (internal/bench/pair.go); a run of 10 pairs on one workload takes about
# 12 minutes. bench-pair-self is the runner's own gate: HEAD against HEAD
# must report identical digests and exact counters ("identical": true).
BASE ?= HEAD~1
N ?= 10
SEED ?= 1
WORKLOAD ?=
bench-pair:
	go run ./cmd/fractal-bench -pair -base $(BASE) -n $(N) -seed $(SEED) -workload "$(WORKLOAD)"

bench-pair-self:
	go run ./cmd/fractal-bench -pair -base HEAD -n 2 -seed 1 -workload small_jobs_el -label self_small_jobs_el
	grep -q '"identical": true' BENCH_self_small_jobs_el.json
	rm BENCH_self_small_jobs_el.json

# Compiled-plan engines against the canonical-check enumeration paths:
# motif and clique counting end to end (EXPERIMENTS.md). The canon columns
# are the test-side oracles (Listing 1 for motifs, Listing 2 for cliques),
# the KClist column Listing 7's custom enumerator. KClistVsBaseline is the
# COST probe: KClist on one core against singlethread.Cliques, 6-cliques of
# the mico-sl analog, x-baseline their ratio. CI's
# `go test -bench=. -benchtime=1x ./...` step runs each once.
BENCHTIME ?= 1s
bench-plan:
	go test -run=NONE -bench='^Benchmark(Motifs(Plan|Canon)|Cliques(Plan|Canon|KClist)|KClistVsBaseline)$$' \
		-benchtime=$(BENCHTIME) -benchmem ./internal/apps/

# Decomposition engine against the pure plan fleet: k=4/k=5 motif counting
# end to end through Motifs' engine argument (auto, which sweeps every
# decomposable pattern at k=4 and 5, and plan; EXPERIMENTS.md §14), and the
# induced conversion's SpanningCounts matrix at k=5 and 6, and the distance-2
# pass of a square sweep on BA(120000, 3) on two cores (LocalCountsFar: B/op
# is its one-byte counters). CI's `go test -bench=. -benchtime=1x ./...` step
# runs each once.
bench-decomp:
	go test -run=NONE -bench='^(BenchmarkMotifs(Auto|Plan)(K5)?|BenchmarkSpanningCounts|BenchmarkLocalCountsFar)$$' \
		-benchtime=$(BENCHTIME) -benchmem ./internal/apps/ ./internal/pattern/ ./internal/subgraph/

# FSM end to end on the repository benchmark's fsm_ml analog
# (SkewLabels(BarabasiAlbert(4500,2),37), support 50, 3 edges), in-process on
# two cores: ns/op is one whole mining job, B/op and allocs/op what pattern
# labelling and aggregation cost it, keys/level3 the classes level 3
# aggregates before the support filter. 12.3 MB, 64 k allocs and 212 keys a
# job; at the parent of PR 20 — every embedding of a frequent prefix
# aggregated, a Class and a Perm on the heap per quick pattern — 30.2 MB,
# 474 k allocs and some 3 250 keys (733 MB/job before labelling was paid per
# class, PR 16). CI's
# `go test -bench=. -benchtime=1x ./...` step runs each once.
bench-fsm:
	go test -run=NONE -bench='^BenchmarkFSM$$' -benchtime=$(BENCHTIME) -benchmem ./internal/apps/

# The scheduler's own cost: plan-engine 5-motifs on the repository benchmark's
# motifs5_sl analog (Community(45, 50, 9, 1.2), one label) on one core and on
# two — cheap kernels, so the DFS loop, the enumerator stack and stealing show
# — plus the stack's push/drain/pop cycle (the benchmark's enumerator.cycle_ns
# probe). allocs/op of the motifs rows is per job and must not scale with
# subgraphs (2.4 M/job before stacks became private, PR 17). CI's
# `go test -bench=. -benchtime=1x ./...` step runs each once.
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
# EXPERIMENTS.md). CI's
# `go test -bench=. -benchtime=1x ./...` step runs each once.
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

# fresh-fuzz runs fuzz target $(1) of package $(2) for $(3) with a generated
# corpus in a directory of its own, removed when it ends: a corpus the Go
# cache kept from earlier runs is replayed first, and a few slow inputs in it
# (a motifs spec at k = 8 installs in seconds) can take the whole run. The
# checked-in seeds (testdata/fuzz/<target>) are replayed every time.
fresh-fuzz = dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go test -run=NONE -fuzz=$(1) -fuzztime=$(3) $(2) -args -test.fuzzcachedir="$$dir"

# Short fuzz of every wire decoder, one layer each (DESIGN.md §12, "Wire
# format"): control-message bodies, aggregation payloads and frame sequences,
# the pattern form. Arbitrary bytes must fail with a *wire.Error, never panic
# or overallocate, and whatever decodes must survive a round trip. The job
# spec of a step start that decodes is then installed with every registered
# app (FuzzJobSpec): a job or an error, never a panic.
fuzz-wire:
	$(call fresh-fuzz,FuzzDecodeMessage,./internal/sched/,10s)
	$(call fresh-fuzz,FuzzJobSpec,./internal/sched/,10s)
	$(call fresh-fuzz,FuzzBinaryCodec,./internal/agg/,10s)
	$(call fresh-fuzz,FuzzFoldFrames,./internal/agg/,10s)
	$(call fresh-fuzz,FuzzPatternFromBinary,./internal/pattern/,10s)

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

# Short fuzz of the embedding's own bookkeeping: random multigraphs
# (parallel edges, independent labels), vertex- and edge-induced walks of
# fuzzed depth; after pushes and pops the edges must be the documented list
# for the kind and the quick key and class those of the labeled subgraph.
fuzz-embedding:
	go test -run=NONE -fuzz=FuzzQuickKey -fuzztime=10s ./internal/subgraph/

# Cross-engine counts: FuzzEngines decodes a graph (ER, BA, sparse ER, dense
# BA, a multigraph or a pinned dataset analog; one label or several; a
# renumbering), an app (motifs, cliques, a query), an engine legal for it
# (auto, plan, decomp, canon), a deployment (in-process 1-2 workers x 1-2
# cores, or a master with two ServeWorkers over TCP) and a storage form
# (built, .el, mapped .fgr); every count must be the canonical-check
# oracle's on the graph as built. The run keeps its generated corpus to
# itself (fresh-fuzz): with the Go cache's corpus (several hundred inputs
# after a few runs) the 30 s went to replaying it before a single new input
# was tried.
fuzz-engines:
	$(call fresh-fuzz,FuzzEngines,./internal/apps/,30s)
