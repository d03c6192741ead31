package core

import "cacqr/internal/lin"

// Batched CholeskyQR drivers: the throughput mode for floods of small
// factorizations. Parallelism comes from the batch dimension — one pool
// dispatch spreads the items over the shared workers — while each item
// runs the whole Ladder serially on one worker, its matrix staying in
// cache from the first Gram matrix to the last Q update. Per item the
// results are those of the sequential drivers with workers = 1, bit for
// bit, and a failure (ill-conditioned, or m < n) is that item's alone.

// BatchedCQR2 factors every matrix in as by CholeskyQR2: item i gets
// exactly CholeskyQR2(as[i], 1), an error in errs[i] with nil factors
// otherwise. The inputs are never modified. workers bounds the pool
// fan-out (0 = GOMAXPROCS).
func BatchedCQR2(as []*lin.Matrix, workers int) (qs, rs []*lin.Matrix, errs []error) {
	return batched(as, workers, 2, false)
}

// BatchedShiftedCQR3 is BatchedCQR2 with ShiftedCQR3(as[i], 1) per item —
// the throughput mode's route for κ ≳ 10⁷ buckets.
func BatchedShiftedCQR3(as []*lin.Matrix, workers int) (qs, rs []*lin.Matrix, errs []error) {
	return batched(as, workers, 3, true)
}

func batched(as []*lin.Matrix, workers, passes int, shifted bool) (qs, rs []*lin.Matrix, errs []error) {
	qs, rs, errs = make([]*lin.Matrix, len(as)), make([]*lin.Matrix, len(as)), make([]error, len(as))
	lin.BatchApply(workers, len(as), func(i int) {
		qs[i], rs[i], errs[i] = sequential(as[i], 1, passes, shifted)
	})
	return qs, rs, errs
}
