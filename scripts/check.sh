#!/bin/sh
# check.sh runs the full verification suite: static analysis, a build of
# every package, the tests, the seeded fault-injection smoke, the
# distributed suite, and a quick pass of the repository benchmark (a module
# of its own that `go build ./...` does not see). The race
# detector runs as its own CI job (`make check-race`) so this path stays
# fast. CI and the Makefile `check` target both call this script.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# The source gates that were greps here (per-embedding canonical labelling,
# enumerator levels shared across cores, per-embedding class tests) are Go
# tests now: TestNoPerEmbeddingCanon (root package, with internal/apps),
# TestNoSharedLevels (internal/enumerator), TestNoPerEmbeddingClassTest
# (internal/apps). `go test ./...` below runs them.
go vet ./...
go build ./...
# internal/rpc opens its sockets through syscall on Linux and through net
# elsewhere (sock_other.go): vet and build the other side too, so the adapter
# keeps compiling where CI does not run it.
GOOS=darwin GOARCH=arm64 go vet ./...
GOOS=windows go build ./...
go test ./...
make chaos
make check-dist
make bench-smoke
