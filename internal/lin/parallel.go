package lin

//lint:allow workersknob this file IS the sanctioned worker pool the knob dispatches through

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared-memory parallelism for the level-3 kernels. The distributed
// algorithms charge flops to the simulated machine model and do not need
// wall-clock speed, but a production library should still use the host's
// cores for large local multiplies. All parallel kernels partition the
// OUTPUT into disjoint row (or column) ranges, so every output element is
// computed by exactly the same sequence of floating-point operations as
// in a serial run — results are bitwise identical for any worker count.
//
// Work is scheduled on a process-wide pool of GOMAXPROCS goroutines
// shared by every kernel invocation (including concurrent invocations
// from different simmpi ranks). Chunks are claimed dynamically through an
// atomic cursor, so triangular workloads (SYRK, TRSM) balance themselves
// without static partition arithmetic. The submitting goroutine always
// works through the chunk list itself: a saturated pool degrades to
// serial execution instead of deadlocking or queueing unboundedly.

// forJob is one parallelFor invocation: a body, an iteration space broken
// into grain-sized chunks, and an atomic cursor the participants race on.
type forJob struct {
	body  func(lo, hi int)
	n     int   // iteration-space size
	grain int   // chunk size
	next  int64 // atomic cursor over chunk indices
	wg    sync.WaitGroup
}

// run claims chunks until the iteration space is exhausted.
func (j *forJob) run() {
	for {
		c := atomic.AddInt64(&j.next, 1) - 1
		lo := int(c) * j.grain
		if lo >= j.n {
			return
		}
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.body(lo, hi)
	}
}

var (
	poolOnce  sync.Once
	poolQueue chan *forJob
)

// poolInit lazily starts the shared workers on first parallel call.
func poolInit() {
	n := runtime.GOMAXPROCS(0)
	poolQueue = make(chan *forJob, 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolQueue {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// parallelFor runs body over [0, n) in grain-sized chunks on up to
// workers goroutines (0 = GOMAXPROCS), including the caller. body must
// not panic: a panic on a pool worker cannot be recovered by the caller,
// so kernels validate shapes before entering the pool.
func parallelFor(workers, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if grain < 1 {
		grain = 1
	}
	if chunks := (n + grain - 1) / grain; workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	poolOnce.Do(poolInit)
	j := &forJob{body: body, n: n, grain: grain}
	j.wg.Add(workers - 1)
	for h := 0; h < workers-1; h++ {
		select {
		case poolQueue <- j:
		default:
			// Pool saturated; the caller's own loop still covers every
			// chunk, so shedding the helper only loses parallelism.
			j.wg.Done()
		}
	}
	j.run()
	j.wg.Wait()
}

// resolveWorkers maps the public knob onto a concrete goroutine count:
// 0 (or negative) means GOMAXPROCS.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
