#!/bin/sh
# check_dist.sh verifies the distributed deployment path end to end: it
# builds both binaries, then runs the distributed differential suite — the
# application drivers on a master context against goroutine workers over
# TCP loopback (registration, elastic join, scripted worker loss) and real
# fractal-worker OS processes including the SIGKILL-mid-step case, plus the
# typed rejection of what a master cannot ship. Counts must be bit-identical
# to the test-side oracles and the in-process runs throughout.
set -eux
cd "$(dirname "$0")/.."
go build ./cmd/fractal ./cmd/fractal-worker
go test -run 'TestDist' -count=1 ./internal/apps/
