package core

import "cacqr/internal/lin"

// Batched CholeskyQR drivers: the throughput mode for floods of
// same-shape small/medium factorizations. The CA-CQR2 insight — amortize
// the Gram/Cholesky work's fixed costs across blocks — applies to
// traffic too: a batch window of 512×32 regressions should cost one
// fused BatchSYRK/BatchGEMM sweep per pass, not one goroutine-pool
// spin-up per request. Parallelism comes from the batch dimension (items
// spread over the shared worker pool), while each item runs exactly the
// serial kernel sequence of CholeskyQR2/ShiftedCQR3 — so per-item
// results are bitwise identical to the sequential drivers, which are in
// turn bitwise invariant in Workers.

// BatchedCQR2 factors every matrix in as (all the same m×n shape, m ≥ n)
// by two fused CholeskyQR passes: one BatchSYRK for all Gram matrices,
// then one pooled sweep of per-item CholInv plus the in-place triangular
// Q update — per pass, for the whole batch. Results are bitwise identical to
// calling CholeskyQR2(as[i], 1) per item. Failures are per item: an
// ill-conditioned member gets errs[i] (wrapping ErrIllConditioned) and
// nil factors without disturbing its batch-mates. workers bounds the
// pool fan-out (0 = GOMAXPROCS).
func BatchedCQR2(as []*lin.Matrix, workers int) (qs, rs []*lin.Matrix, errs []error) {
	return batchedQR(as, workers, false)
}

// BatchedShiftedCQR3 is the batched three-pass shifted variant: a fused
// shifted CholeskyQR pass to tame the conditioning, then the two fused
// CholeskyQR2 passes — the throughput mode's route for κ ≳ 10⁷ buckets.
// Per item it is bitwise identical to ShiftedCQR3(as[i], 1).
func BatchedShiftedCQR3(as []*lin.Matrix, workers int) (qs, rs []*lin.Matrix, errs []error) {
	return batchedQR(as, workers, true)
}

// batchedQR is the shared fused driver: a shifted or plain first pass,
// then the CholeskyQR2 tail, then the per-item triangular R combination.
func batchedQR(as []*lin.Matrix, workers int, shifted bool) (qs, rs []*lin.Matrix, errs []error) {
	b := len(as)
	qs, rs, errs = make([]*lin.Matrix, b), make([]*lin.Matrix, b), make([]error, b)
	if b == 0 {
		return qs, rs, errs
	}
	if as[0].Rows < as[0].Cols {
		for i := range errs {
			errs[i] = lin.ErrShape
		}
		return qs, rs, errs
	}
	a := lin.SlabFrom(as) // panics on mixed shapes: batches are same-key by construction

	// Two fused CholeskyQR passes — three when the first is shifted.
	q := a
	var passRs [][]*lin.Matrix
	passes := 2
	if shifted {
		passes = 3
	}
	for p := 0; p < passes; p++ {
		var rp []*lin.Matrix
		q, rp = batchedPass(q, workers, shifted && p == 0, errs)
		passRs = append(passRs, rp)
	}

	// Per-item combination, one pool dispatch: the ladder's fold over the
	// passes in order. Q factors are handed out as views into the slab
	// (one allocation for the whole batch, disjoint lanes per item) —
	// cloning them would add a full batch-sized copy to the throughput
	// path for nothing, since the slab has no other owner after this
	// returns.
	lin.BatchApply(workers, b, func(i int) {
		if errs[i] != nil {
			return
		}
		for _, rp := range passRs {
			rs[i] = fold(rs[i], rp[i])
		}
		qs[i] = q.Item(i)
	})
	return qs, rs, errs
}

// batchedPass runs one fused CholeskyQR pass over the slab: BatchSYRK
// for every Gram matrix (beta=0, the kernel's store form: w is written
// without being read, exactly as the sequential pass does), then one pooled
// per-item sweep doing the ladder's Factor and the in-place triangular Q
// update A_i := A_i·(L⁻¹)ᵀ — the same Trmm the sequential drivers
// apply, so lanes stay bitwise identical to CholeskyQR(as[i], 1).
// Updating lanes in place keeps the throughput path to one m×n slab for
// the whole pipeline: no per-pass Q slab allocation, and A_i is still
// cache-hot from its Gram computation when its Q update runs. Items
// whose Cholesky breaks down get errs[i] set and keep their (finite)
// lane contents; later passes skip them.
func batchedPass(a *lin.Slab, workers int, shifted bool, errs []error) (q *lin.Slab, rts []*lin.Matrix) {
	b, m, n := a.Batch, a.Rows, a.Cols
	w := lin.NewSlab(b, n, n)
	lin.BatchSYRK(workers, 1, a, 0, w)
	rts = make([]*lin.Matrix, b)
	lin.BatchApply(workers, b, func(i int) {
		if errs[i] != nil {
			return
		}
		r, y, err := Factor(w.Item(i), m, shifted)
		if err != nil {
			errs[i] = err
			return
		}
		lin.Trmm(lin.Right, lin.Lower, true, y, a.Item(i))
		rts[i] = r
	})
	return a, rts
}
