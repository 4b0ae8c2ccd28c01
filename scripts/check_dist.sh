#!/bin/sh
# check_dist.sh verifies the distributed deployment path end to end: it
# builds both binaries, then runs the distributed differential suite — the
# application drivers on a master context against goroutine workers over
# TCP loopback (registration, elastic join, scripted worker loss) and real
# fractal-worker OS processes including the SIGKILL-mid-step case, plus the
# typed rejection of what a master cannot ship. Counts must be bit-identical
# to the test-side oracles and the in-process runs throughout.
#
# It then drives the built binaries themselves: a `fractal -listen` master
# with two fractal-worker processes must write a -metrics-out report whose
# summed extension_tests is positive and equal to the in-process run's on the
# same file — the workers' counters reach the master's report.
set -eux
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/fractal ./cmd/fractal-worker
go test -run 'TestDist' -count=1 ./internal/apps/

# A ring of 600 vertices with chords at +2 and +5: triangles on every vertex.
awk 'BEGIN { n = 600
	for (i = 0; i < n; i++) print "v", i, 1
	for (i = 0; i < n; i++) { print "e", i, (i+1)%n; print "e", i, (i+2)%n; print "e", i, (i+5)%n }
}' > "$tmp/ring.el"

# sum_ec prints the report's extension_tests summed over its steps.
sum_ec() {
	grep -o '"extension_tests": *[0-9]*' "$1" | awk -F: '{ s += $2 } END { print s + 0 }'
}

"$tmp/fractal" -graph "$tmp/ring.el" -app cliques -k 3 -workers 1 -cores 2 \
	-metrics-out "$tmp/local.json"

"$tmp/fractal" -listen 127.0.0.1:0 -min-workers 2 -cores 1 \
	-graph "$tmp/ring.el" -app cliques -k 3 \
	-metrics-out "$tmp/master.json" > "$tmp/master.out" &
master=$!
addr=
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^master listening on //p' "$tmp/master.out")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ]
"$tmp/fractal-worker" -master "$addr" -cores 1 &
"$tmp/fractal-worker" -master "$addr" -cores 1 &
wait "$master"
wait
cat "$tmp/master.out"

local_ec=$(sum_ec "$tmp/local.json")
master_ec=$(sum_ec "$tmp/master.json")
[ "$local_ec" -gt 0 ]
[ "$master_ec" -eq "$local_ec" ]
