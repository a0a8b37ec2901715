// Intra-operator worker pool: the package's only blessed home for
// goroutine launches (the ivmlint gostmt rule enforces it). All
// operator-kernel concurrency in internal/algebra flows through
// parallelFor below, so worker counts stay bounded by the caller's
// OpWorkers knob and there is exactly one place to reason about goroutine
// lifetime: every launch is joined before the kernel returns.

package algebra

import "sync"

// OpParallelEnv is the optional extension of Env through which an executor
// grants a plan intra-operator parallelism. Plans Run against a plain Env
// stay fully sequential; the Δ-script executor implements it and returns
// its ExecOptions.OpWorkers.
type OpParallelEnv interface {
	Env
	// OpWorkers returns the worker budget for partition-parallel kernels
	// inside a single operator; values below 2 mean sequential.
	OpWorkers() int
}

// opWorkers extracts the intra-operator worker budget from an environment
// (1 — sequential — unless env opts in via OpParallelEnv).
func opWorkers(env Env) int {
	if pe, ok := env.(OpParallelEnv); ok {
		if w := pe.OpWorkers(); w > 1 {
			return w
		}
	}
	return 1
}

// MinOpRows is the smallest input cardinality at which a parallel kernel
// engages; below it the sequential loop wins on constant factors alone.
// A variable rather than a constant so the differential tests can force
// the parallel kernels on small seeded inputs.
var MinOpRows = 1024

// span is a half-open chunk [lo, hi) of a slice.
type span struct{ lo, hi int }

// chunkSpans splits n items into at most k contiguous, near-equal chunks
// in order. Concatenating per-chunk results in span order reproduces the
// sequential iteration order — the merge contract every kernel relies on.
func chunkSpans(n, k int) []span {
	if k > n {
		k = n
	}
	if k < 1 {
		return nil
	}
	out := make([]span, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo < hi {
			out = append(out, span{lo: lo, hi: hi})
		}
	}
	return out
}

// parallelFor runs fn(0) … fn(n-1) on up to `workers` goroutines and
// blocks until all calls return. fn must confine its side effects to index-owned state
// (slot i of a results slice).
func parallelFor(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idxCh := make(chan int, n)
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
