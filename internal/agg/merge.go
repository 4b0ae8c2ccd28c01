package agg

import (
	"errors"
	"sync"
)

// ErrMergeCancelled is returned by MergeTree and by the step-tail folds
// (fold.go) when the stop predicate fired before the fold completed. The
// runtime maps it onto the run's context error, so a cancelled step never
// commits a partially merged aggregation.
var ErrMergeCancelled = errors.New("agg: merge cancelled")

// MergeTree folds stores pairwise into a single store, running each level's
// pair merges concurrently: n partials reach one result in ceil(log2 n)
// rounds of parallel MergeFrom calls instead of a sequential n-1 fold. The
// runtime uses it both for a worker's per-core partials and for the master's
// per-worker decoded payloads — the two reduction layers of the aggregation
// primitive (A).
//
// Nil entries are skipped. The surviving first store receives every other
// store's contents and is returned; callers must treat the inputs as
// consumed. The result is independent of the tree shape for the reductions
// this package ships (set union, sums, min/max — see the merge-order
// independence tests); user reductions must be commutative and associative
// to be mergeable across cores at all, which is the same contract the
// sequential fold already imposed (per-core insertion order was never
// deterministic).
//
// stop is polled between levels (nil means never stop): when it reports
// true, the fold abandons its remaining levels and returns
// ErrMergeCancelled. A non-nil error from an underlying MergeFrom aborts the
// fold with that error.
func MergeTree(stores []Store, stop func() bool) (Store, error) {
	live := make([]Store, 0, len(stores))
	for _, s := range stores {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	for len(live) > 1 {
		if stop != nil && stop() {
			return nil, ErrMergeCancelled
		}
		pairs := len(live) / 2
		errs := make([]error, pairs)
		var wg sync.WaitGroup
		for i := 1; i < pairs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = live[2*i].MergeFrom(live[2*i+1])
			}(i)
		}
		// Pair 0 runs on the calling goroutine, so a single-pair level (the
		// common two-store case) spawns nothing.
		errs[0] = live[0].MergeFrom(live[1])
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i := 0; i < pairs; i++ {
			live[i] = live[2*i]
		}
		if len(live)%2 == 1 {
			live[pairs] = live[len(live)-1]
			live = live[:pairs+1]
		} else {
			live = live[:pairs]
		}
	}
	return live[0], nil
}
