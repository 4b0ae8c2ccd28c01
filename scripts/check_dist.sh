#!/bin/sh
# check_dist.sh verifies the distributed deployment path end to end: it
# builds both binaries, then runs the distributed differential suite — the
# application drivers on a master context against goroutine workers over
# TCP loopback (registration, elastic join, scripted worker loss) and real
# fractal-worker OS processes including the SIGKILL-mid-step case, plus the
# typed rejection of what a master cannot ship — and FuzzEngines' seeds,
# whose master rows count on goroutine workers too. Counts must be
# bit-identical to the test-side oracles and the in-process runs throughout.
#
# It then drives the built binaries themselves: a `fractal -listen` master
# with two fractal-worker processes must write a -metrics-out report whose
# summed extension_tests is positive and equal to the in-process run's on the
# same file — the workers' counters reach the master's report. Last, FSM on a
# labelled multigraph with an infrequent edge parallel to a frequent one, to
# 3 and to 4 edges: the master ships each level's spec in its step starts
# and enumerates nothing, its two workers each install every level and
# derive its frequent-edge graph, the step starts carry the earlier levels'
# frequent codes (three entries on level 4), the printed total must be the
# sum of the per-level counts on both sides, and the patterns printed must
# be the in-process run's, line for line.
set -eux
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/fractal ./cmd/fractal-worker
go test -run 'TestDist|FuzzEngines' -count=1 ./internal/apps/

# A ring of 600 vertices with chords at +2 and +5: triangles on every vertex.
awk 'BEGIN { n = 600
	for (i = 0; i < n; i++) print "v", i, 1
	for (i = 0; i < n; i++) { print "e", i, (i+1)%n; print "e", i, (i+2)%n; print "e", i, (i+5)%n }
}' > "$tmp/ring.el"

# start_master runs `fractal -listen` with the given flags, stdout to $1,
# waits for its address and starts two one-core fractal-worker processes.
# The second listens on the wildcard :0, so it registers the IP it reaches
# the master from, and its peer's steals and the master's steps reach it
# there.
start_master() {
	out=$1
	shift
	"$tmp/fractal" -listen 127.0.0.1:0 -min-workers 2 -cores 1 "$@" > "$out" &
	master=$!
	addr=
	for _ in $(seq 1 100); do
		addr=$(sed -n 's/^master listening on //p' "$out")
		[ -n "$addr" ] && break
		sleep 0.1
	done
	[ -n "$addr" ]
	"$tmp/fractal-worker" -master "$addr" -cores 1 &
	"$tmp/fractal-worker" -master "$addr" -listen :0 -cores 1 &
}

# sum_ec prints the report's extension_tests summed over its steps.
sum_ec() {
	grep -o '"extension_tests": *[0-9]*' "$1" | awk -F: '{ s += $2 } END { print s + 0 }'
}

"$tmp/fractal" -graph "$tmp/ring.el" -app cliques -k 3 -workers 1 -cores 2 \
	-metrics-out "$tmp/local.json"

start_master "$tmp/master.out" -graph "$tmp/ring.el" -app cliques -k 3 \
	-metrics-out "$tmp/master.json"
wait "$master"
wait
cat "$tmp/master.out"

local_ec=$(sum_ec "$tmp/local.json")
master_ec=$(sum_ec "$tmp/master.json")
[ "$local_ec" -gt 0 ]
[ "$master_ec" -eq "$local_ec" ]

# A ring of 60 label-A vertices (29 and 59 are B) with chords at +2, all
# label x; x doubles every tenth ring edge, an infrequent y doubles three
# more, and one z edge is infrequent and simple. At support 4 the (A, B, x)
# edges, the y edges and the z edge go.
awk 'BEGIN { n = 60
	for (i = 0; i < n; i++) print "v", i, (i % 30 == 29 ? "B" : "A")
	for (i = 0; i < n; i++) { print "e", i, (i+1)%n, "x"; print "e", i, (i+2)%n, "x" }
	for (i = 0; i < n; i += 10) print "e", i, i+1, "x"
	for (i = 5; i < n; i += 20) print "e", i, i+1, "y"
	print "e", 0, 30, "z"
}' > "$tmp/multi.el"

# patterns prints a run's result lines, sorted: no master chatter.
patterns() {
	grep -v -e '^master listening on ' -e '^waiting for ' "$1" | sort
}

for maxedges in 3 4; do
	"$tmp/fractal" -graph "$tmp/multi.el" -app fsm -support 4 -maxedges $maxedges -cores 2 > "$tmp/fsm-local.out"
	start_master "$tmp/fsm-master.out" -graph "$tmp/multi.el" -app fsm -support 4 -maxedges $maxedges
	wait "$master"
	wait
	cat "$tmp/fsm-master.out"
	# maxedges levels, and the last finds something
	grep -q "^frequent patterns .*, per level \[\([0-9]* \)\{$((maxedges - 1))\}[1-9][0-9]*\]\$" "$tmp/fsm-local.out"
	# the total is the per-level counts' sum: no level overwrites another's
	# pattern (parallel edges folding into fewer pattern edges)
	for out in "$tmp/fsm-local.out" "$tmp/fsm-master.out"; do
		sed -n 's/^frequent patterns .*: \([0-9]*\), per level \[\(.*\)\]$/\1 \2/p' "$out" |
			awk '{ s = 0; for (i = 2; i <= NF; i++) s += $i; if (NF < 2 || s != $1) exit 1 }'
		grep -q '^frequent patterns ' "$out"
	done
	patterns "$tmp/fsm-local.out" > "$tmp/fsm-local.sorted"
	patterns "$tmp/fsm-master.out" > "$tmp/fsm-master.sorted"
	cmp "$tmp/fsm-local.sorted" "$tmp/fsm-master.sorted"
done
