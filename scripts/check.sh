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
# Labelling is paid per class: per-embedding code asks the embedding's class
# memo (e.Class(), Context.PatternOf/PatternRep/MNISupport). Building the
# embedding's Pattern to canonicalize or classify it on the spot is what
# PR 16 removed from the applications and the root package.
if grep -nE '(Canonical|CanonicalRep|Representative|Classify|PatternCanon|PatternRepOf)\((e|emb)\.Pattern\(\)\)|(e|emb)\.Pattern\(\)\.Canonical\(\)|FromEmbedding\((e|emb)\.Graph\(\)' \
    $(ls *.go internal/apps/*.go | grep -v _test.go); then
    echo "per-embedding canonical labelling outside the class memo" >&2
    exit 1
fi
# Enumerator stacks are private to the core that runs the DFS loop: no lock,
# no pool, no level snapshot. A `sync` import or a copied level slice in
# internal/enumerator is the shared-memory stealing PR 17 removed.
if grep -nE '"sync(/atomic)?"|append\(\[\]\*Enumerator\(nil\)' $(ls internal/enumerator/*.go | grep -v _test.go); then
    echo "internal/enumerator synchronizes or snapshots its levels again" >&2
    exit 1
fi
# FSM decides per class: a filter that reads only the embedding's class goes
# through FilterAggClass, whose verdict the class memo keeps. Testing the
# class's code against an aggregation once per embedding is what PR 20
# removed from the applications.
if grep -n 'Contains(e\.Class()\.Code)' $(ls internal/apps/*.go | grep -v _test.go); then
    echo "a per-embedding class test in internal/apps: use fractal.FilterAggClass" >&2
    exit 1
fi
go vet ./...
go build ./...
go test ./...
make chaos
make check-dist
make bench-smoke
