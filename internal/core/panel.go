package core

import (
	"fmt"

	"cacqr/internal/costmodel"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
)

// PanelCACQR2 implements the paper's §V future-work proposal: "a CA-CQR2
// algorithm that operates on subpanels to reduce computation cost
// overhead ... for near-square matrices".
//
// The matrix is processed in column panels of width b. Each panel is
// factored by CA-CQR2 (tall-skinny, where CholeskyQR2's flop overhead is
// mild), then the trailing columns are updated Householder-style:
//
//	for each panel k:
//	    Q_k, R_kk = CA-CQR2(A_k)                  (Algorithm 9)
//	    R_k,rest  = Q_kᵀ · A_rest                 (Gram-pattern product)
//	    A_rest   -= Q_k · R_k,rest                (MM3D per subcube)
//
// Whole-matrix CA-CQR2 pays ~4mn² flops versus Householder's 2mn²; the
// panel variant pays ~2mn² + O(mnb), halving the overhead when b ≪ n.
// The price is more synchronization (n/b panel factorizations in
// sequence) — the same tradeoff axis as the paper's other knobs.
//
// Requires c | b and b | n. b = n degenerates to plain CA-CQR2.
func PanelCACQR2(g *grid.Grid, aLocal *lin.Matrix, m, n, b int, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	if err := checkShapes(g, aLocal, m, n); err != nil {
		return nil, nil, err
	}
	if b < 1 || b%g.C != 0 || n%b != 0 {
		return nil, nil, fmt.Errorf("core: panel width %d must satisfy c | b and b | n (c=%d, n=%d)", b, g.C, n)
	}
	words, err := costmodel.PanelCACQR2Memory(m, n, b, costmodel.CACQRParams{C: g.C, D: g.D, InverseDepth: prm.InverseDepth})
	if err != nil {
		return nil, nil, err
	}
	// The model counts the input block, which is the caller's.
	ws := g.Workspace(words - int64(aLocal.Rows)*int64(aLocal.Cols))
	c := g.C
	bloc := b / c // local columns per panel
	q := ws.Matrix(aLocal.Rows, aLocal.Cols)
	r := ws.Matrix(n/c, n/c) // n×n cyclic block over the subcube slice
	r.Zero()
	defer ws.Release(ws.Mark())
	work := ws.Matrix(aLocal.Rows, aLocal.Cols) // trailing matrix, updated in place
	work.CopyFrom(aLocal)

	np := n / b
	for k := 0; k < np; k++ {
		if err := panelStep(g, ws, q, r, work, m, k, bloc, prm); err != nil {
			return nil, nil, err
		}
	}
	return q, r, nil
}

// panelStep factors panel k of work into its columns of q and its
// diagonal block of r, then fills the rest of r's block row and updates
// the trailing columns of work. What it takes from ws it gives back.
func panelStep(g *grid.Grid, ws *grid.Workspace, q, r, work *lin.Matrix, m, k, bloc int, prm Params) error {
	defer ws.Release(ws.Mark())
	panel := ws.View(work, 0, k*bloc, work.Rows, bloc)
	qk, rkk, err := CACQR2(g, panel, m, bloc*g.C, prm)
	if err != nil {
		return fmt.Errorf("core: panel %d: %w", k, err)
	}
	ws.View(q, 0, k*bloc, q.Rows, bloc).CopyFrom(qk)
	// R_kk occupies global rows/cols [k·b, (k+1)·b); with c | b its
	// cyclic block lands at local offset k·b/c in the n×n block.
	ws.View(r, k*bloc, k*bloc, bloc, bloc).CopyFrom(rkk)

	restLoc := work.Cols - (k+1)*bloc
	if restLoc == 0 {
		return nil
	}
	rest := ws.View(work, 0, (k+1)*bloc, work.Rows, restLoc)

	// R_k,rest = Q_kᵀ·A_rest via the Algorithm 8 Gram pattern.
	rkRest := ws.Matrix(bloc, restLoc)
	if err := gramProduct(g, ws, rkRest, qk, rest, lin.GemmFlops(bloc, restLoc, qk.Rows), prm.localWorkers()); err != nil {
		return fmt.Errorf("core: panel %d trailing product: %w", k, err)
	}
	ws.View(r, k*bloc, (k+1)*bloc, bloc, restLoc).CopyFrom(rkRest)

	// A_rest -= Q_k · R_k,rest over the subcube.
	p := g.World.Proc()
	defer p.SetPhase(p.SetPhase(costmodel.LineUpdate))
	upd := ws.Matrix(rest.Rows, restLoc)
	if err := mm3d.MultiplyInto(g.Cube, upd, qk, rkRest, false, prm.localWorkers()); err != nil {
		return fmt.Errorf("core: panel %d trailing update: %w", k, err)
	}
	rest.Sub(upd)
	return p.Compute(lin.AxpyFlops(rest.Rows, rest.Cols))
}
