package costmodel

import "fmt"

// Out-of-core CholeskyQR2: the paper's 1D-CQR2 on one rank that streams
// row panels, with the Gram allreduce replaced by a running sum
// G += AᵢᵀAᵢ. Every pass over the matrix is one sequential scan; the
// resident state is three panel buffers plus a handful of n×n factors, so
// the footprint has no term in m or in the panel count — the algorithm
// the planner routes to when no in-core variant fits the memory budget.
// The charges here equal internal/stream's driver counters exactly, the
// same contract the in-core rows keep with simmpi's measured counters.

// streamPanels validates a streaming shape and returns how many panels
// of (clamped) panelRows rows cover the m rows. The tail panel is just
// a shorter panel: nothing in the algorithm needs a panel to have n
// rows.
func streamPanels(m, n, panelRows int) (panels, b int64, err error) {
	if m < 1 || n < 1 || m < n {
		return 0, 0, fmt.Errorf("costmodel: stream shape %dx%d (need m ≥ n ≥ 1)", m, n)
	}
	if panelRows < n {
		return 0, 0, fmt.Errorf("costmodel: stream panel rows %d < n=%d", panelRows, n)
	}
	b = int64(min(panelRows, m))
	return (int64(m) + b - 1) / b, b, nil
}

// StreamCQR2 prices the streamed CholeskyQR2 of an m×n matrix in panels
// of panelRows rows on one process. Gram pass i re-reads the matrix,
// applies the i−1 triangular inverses found so far (mn² each) and
// accumulates the Gram matrix (mn²), then factors and inverts it
// (n³ — CholInv); consecutive R factors fold with one triangular
// product, (1/3)n³ as in the paper's count for Algorithm 7 — the
// charges of core.Ladder, which the driver runs. The plain ladder has
// two Gram passes, the shifted ladder (streamed ShiftedCQR3) three;
// writeQ adds one more pass that re-reads, applies every inverse and
// writes the panel. Plain: 3mn² + (7/3)n³ for R only, 5mn² + (7/3)n³
// with Q. I/O is charged on the disk tier: one IOOp
// per panel touch and 8·m·n IOBytes per pass (two reads R-only, three
// reads and one write with Q; one more read each when shifted). No
// communication: α = β = 0.
func StreamCQR2(m, n, panelRows int, writeQ, shifted bool) (Cost, error) {
	panels, _, err := streamPanels(m, n, panelRows)
	if err != nil {
		return Cost{}, err
	}
	mm, nn := int64(m), int64(n)
	grams := int64(2)
	if shifted {
		grams = 3
	}
	products := grams * (grams + 1) / 2 // pass i: i−1 TRMMs + 1 SYRK
	passes := grams                     // scans of the matrix, reads and writes
	if writeQ {
		products += grams
		passes += 2
	}
	cholInv := 2*nn*nn*nn/3 + nn*nn*nn/3
	return Cost{
		Flops:   products*mm*nn*nn + grams*cholInv + (grams-1)*(nn*nn*nn/3),
		IOOps:   passes * panels,
		IOBytes: passes * 8 * mm * nn,
	}, nil
}

// StreamCQR2Memory returns the modeled peak resident words of the
// streaming driver: the source's live panel and the driver's two
// read-ahead buffers (b·n each), plus at most eight n×n matrices — the
// pass-1 Gram kept for escalation, the running Gram, up to three
// inverses, the running R and the Cholesky factor being folded into it.
// This is the bound the driver's own accounting is tested against — and
// the number the planner compares to MemBudget.
func StreamCQR2Memory(m, n, panelRows int) (int64, error) {
	_, b, err := streamPanels(m, n, panelRows)
	if err != nil {
		return 0, err
	}
	nn := int64(n)
	return 3*b*nn + 8*nn*nn, nil
}
