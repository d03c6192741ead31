package costmodel

import "fmt"

// Per-algorithm cost recurrences. Each function mirrors the corresponding
// implementation's charging, line by line; the validation tests assert
// exact equality between these predictions and instrumented runs.

// MM3D is Algorithm 1 on an edge-e cube with local operand blocks
// aR×aC (A) and aC×bC (B): two broadcasts, a local multiply, and a depth
// Allreduce (Table I row MM3D).
func MM3D(aR, aC, bC int64, e int) Cost {
	c := Bcast(aR*aC, e)
	c = c.Add(Bcast(aC*bC, e))
	c = c.Add(Cost{Flops: 2 * aR * bC * aC})
	c = c.Add(Allreduce(aR*bC, e))
	return c
}

// MM3DTri is MM3D with a triangular operand: same communication, TRMM
// flop rate (half of GEMM).
func MM3DTri(aR, aC, bC int64, e int) Cost {
	c := MM3D(aR, aC, bC, e)
	c.Flops -= aR * bC * aC
	return c
}

// CFR3DOptions mirror cfr3d.Options.
type CFR3DOptions struct {
	BaseSize     int
	InverseDepth int
}

// CFR3D is Algorithm 3 on an n×n matrix over an edge-e cube, mirroring
// cfr3d.Factor including its base-size defaulting and rounding.
func CFR3D(n, e int, opts CFR3DOptions) Cost {
	return Sum(CFR3DLines(n, e, opts))
}

// CFR3DLines decomposes the CFR3D cost by Algorithm 3 line, the
// decomposition Table II reports. Keys are "<line>:<operation>"; the
// recursive calls (lines 5 and 11) are folded into the leaf lines they
// expand to.
func CFR3DLines(n, e int, opts CFR3DOptions) map[string]Cost {
	base := opts.BaseSize
	if base <= 0 {
		base = n / (e * e)
		if base < e {
			base = e
		}
	}
	if base%e != 0 && base != n {
		base += e - base%e
	}
	lines := make(map[string]Cost)
	cfr3dRec(n, e, base, 0, opts.InverseDepth, lines)
	return lines
}

func addLine(lines map[string]Cost, key string, c Cost) {
	if lines != nil {
		lines[key] = lines[key].Add(c)
	}
}

func cfr3dRec(n, e, base, depth, invDepth int, lines map[string]Cost) Cost {
	if n <= base || (n/2)%e != 0 || n%2 != 0 {
		// Base case: slice Allgather of the full n×n panel plus the
		// redundant CholInv.
		ag := Allgather(int64(n)*int64(n), e*e)
		ci := Cost{Flops: 2*int64(n)*int64(n)*int64(n)/3 + int64(n)*int64(n)*int64(n)/3}
		addLine(lines, "2:Allgather(base)", ag)
		addLine(lines, "3:CholInv(base)", ci)
		return ag.Add(ci)
	}
	half := int64(n / (2 * e)) // local quadrant edge
	blk := half * half

	c := cfr3dRec(n/2, e, base, depth+1, invDepth, lines) // line 5: A11
	// Lines 6–7: L21 = A21·L11⁻ᵀ, by direct multiply or by blocked
	// substitution when the top invDepth−depth−1 levels of Y11 were not
	// formed.
	c = c.Add(applyInvTCost(half, half, e, invDepth-depth-1, false, lines))
	t8 := Transpose(blk, e*e)
	addLine(lines, "8:Transpose(L21)", t8)
	m9 := MM3D(half, half, half, e)
	addLine(lines, "9:MM3D(U)", m9)
	ax := Cost{Flops: 2 * blk}
	addLine(lines, "10:axpy(A22-U)", ax)
	c = c.Add(t8).Add(m9).Add(ax)
	c = c.Add(cfr3dRec(n/2, e, base, depth+1, invDepth, lines)) // line 11
	if depth >= invDepth {                                      // lines 12–14
		m12 := MM3D(half, half, half, e)
		addLine(lines, "12:MM3D(L21*Y11)", m12)
		ng := Cost{Flops: blk}
		addLine(lines, "13:negate(Y22)", ng)
		m14 := MM3D(half, half, half, e)
		addLine(lines, "14:MM3D(Y21)", m14)
		c = c.Add(m12).Add(ng).Add(m14)
	}
	return c
}

// applyInvTCost mirrors cfr3d.ApplyInvT on an aR-row block against an
// lRows-wide local factor: the one recurrence under CFR3D lines 6–7
// (tri false, decomposed into lines) and CA-CQR line 8 (tri true: the
// leaf product at the TRMM rate; lines nil).
func applyInvTCost(aR, lRows int64, e, k int, tri bool, lines map[string]Cost) Cost {
	if k <= 0 || lRows < 2 || lRows%2 != 0 {
		t := Transpose(lRows*lRows, e*e)
		addLine(lines, "6:Transpose(Y11)", t)
		m := MM3D(aR, lRows, lRows, e)
		if tri {
			m = MM3DTri(aR, lRows, lRows, e)
		}
		addLine(lines, "7:MM3D(L21)", m)
		return t.Add(m)
	}
	half := lRows / 2
	c := applyInvTCost(aR, half, e, k-1, tri, lines)
	t := Transpose(half*half, e*e)
	addLine(lines, "6:Transpose(Y11)", t)
	m := MM3D(aR, half, half, e)
	ax := Cost{Flops: 2 * aR * half}
	addLine(lines, "7:MM3D(L21)", m.Add(ax))
	c = c.Add(t).Add(m).Add(ax)
	return c.Add(applyInvTCost(aR, half, e, k-1, tri, lines))
}

// The charged lines of the grid family (Algorithms 6–9 and the §V panel
// variant). Each name is at once the ledger phase a rank charges the
// line's cost under (transport.Proc.SetPhase), the stage span a traced
// rank records for it, and the row of the paper's tables. Lines 1–8 are
// Algorithm 8's, Table V's rows: CFR3D's own lines (Table II) stay
// inside line 7, which also holds a shifted pass's trace, and line 8
// includes the transpose that yields Rᵢ = Lᵀ. LineFold is Algorithm 9's
// R = Rᵢ·R, Table VI's row 4; LineUpdate is the panel variant's
// trailing update A_rest −= Q_k·R_k,rest and its axpy.
const (
	LineBcastA     = "1:Bcast(A)"
	LineGram       = "2:MM(WtA)"
	LineReduce     = "3:Reduce"
	LineAllreduce  = "4:Allreduce"
	LineBcastDepth = "5:Bcast(Z,depth)"
	LineCFR3D      = "7:CFR3D"
	LineQ          = "8:MM3D(Q)+Transp"
	LineFold       = "4:MM3D(R2*R1)"
	LineUpdate     = "9:MM3D(Arest)+axpy"
)

// CACQRParams mirror core.Params plus the grid shape.
type CACQRParams struct {
	C, D         int
	BaseSize     int
	InverseDepth int
}

// Sum totals a per-line table.
func Sum(lines map[string]Cost) Cost {
	var total Cost
	for _, c := range lines {
		total = total.Add(c)
	}
	return total
}

// CACQR is Algorithm 8 for an m×n matrix on a c×d×c grid (Table V): the
// sum of CACQRLines.
func CACQR(m, n int, prm CACQRParams) (Cost, error) {
	lines, err := CACQRLines(m, n, prm)
	return Sum(lines), err
}

// CACQR2 is Algorithm 9: two CA-CQR passes plus R = R₂·R₁ over the
// subcube (Table VI), the sum of CACQR2Lines.
func CACQR2(m, n int, prm CACQRParams) (Cost, error) {
	lines, err := CACQR2Lines(m, n, prm)
	return Sum(lines), err
}

// ShiftedCACQR3 models core.ShiftedCACQR3, the sum of
// ShiftedCACQR3Lines: ~1.5× CA-CQR2's cost, stable to κ ≈ 1/ε. The
// passes run in place, so its footprint is CACQR2Memory.
func ShiftedCACQR3(m, n int, prm CACQRParams) (Cost, error) {
	lines, err := ShiftedCACQR3Lines(m, n, prm)
	return Sum(lines), err
}

// PanelCACQR2 models core.PanelCACQR2, the sum of PanelCACQR2Lines.
func PanelCACQR2(m, n, b int, prm CACQRParams) (Cost, error) {
	lines, err := PanelCACQR2Lines(m, n, b, prm)
	return Sum(lines), err
}

// CACQRLines decomposes Algorithm 8 by line, keyed by the Line names.
func CACQRLines(m, n int, prm CACQRParams) (map[string]Cost, error) {
	return ladderLines(m, n, 1, false, prm)
}

// CACQR2Lines decomposes Algorithm 9: both passes' Table V lines, summed
// line by line, and the fold.
func CACQR2Lines(m, n int, prm CACQRParams) (map[string]Cost, error) {
	return ladderLines(m, n, 2, false, prm)
}

// ShiftedCACQR3Lines decomposes the shifted CholeskyQR3 on the grid: one
// CA-CQR pass on the shifted Gram matrix, whose trace is one Allreduce
// of one word over the c × c subcube slice charged to line 7 (the
// diagonal update itself is O(n) uncharged work; at c = 1 the Allreduce
// is free), then CA-CQR2 on the result, with a fold after each pass but
// the first.
func ShiftedCACQR3Lines(m, n int, prm CACQRParams) (map[string]Cost, error) {
	return ladderLines(m, n, 3, true, prm)
}

// ladderLines mirrors core.Ladder on the grid: passes CA-CQR passes, the
// first shifted when shifted is set, each after the first followed by
// the fold.
func ladderLines(m, n, passes int, shifted bool, prm CACQRParams) (map[string]Cost, error) {
	c, d := prm.C, prm.D
	if m%d != 0 || n%c != 0 {
		return nil, fmt.Errorf("costmodel: %dx%d not divisible by grid %dx%d", m, n, d, c)
	}
	lines := make(map[string]Cost)
	addLadderLines(lines, m, n, passes, shifted, prm)
	return lines, nil
}

func addLadderLines(lines map[string]Cost, m, n, passes int, shifted bool, prm CACQRParams) {
	c, d := prm.C, prm.D
	mloc, nloc := int64(m/d), int64(n/c)
	cfr := CFR3D(n, c, CFR3DOptions{BaseSize: prm.BaseSize, InverseDepth: prm.InverseDepth})
	q := applyInvTCost(mloc, nloc, c, prm.InverseDepth, true, nil).Add(Transpose(nloc*nloc, c*c))
	for i := 0; i < passes; i++ {
		addGramLines(lines, mloc, nloc, nloc, mloc*nloc*nloc, c, d) // line 2 at the SYRK rate
		if shifted && i == 0 {
			addLine(lines, LineCFR3D, Allreduce(1, c*c))
		}
		addLine(lines, LineCFR3D, cfr)
		addLine(lines, LineQ, q)
		if i > 0 {
			addLine(lines, LineFold, MM3DTri(nloc, nloc, nloc, c))
		}
	}
}

// addGramLines adds Algorithm 8 lines 1–5 for C = Qᵀ·B with Q's local
// block mloc × qc and B's mloc × bc (core.gramProduct): broadcast Q,
// the local product charged flops, and the reduce chain of the qc × bc
// result.
func addGramLines(lines map[string]Cost, mloc, qc, bc, flops int64, c, d int) {
	addLine(lines, LineBcastA, Bcast(mloc*qc, c))
	addLine(lines, LineGram, Cost{Flops: flops})
	addLine(lines, LineReduce, Reduce(qc*bc, c))
	addLine(lines, LineAllreduce, Allreduce(qc*bc, d/c))
	addLine(lines, LineBcastDepth, Bcast(qc*bc, c))
}

// PanelCACQR2Lines decomposes core.PanelCACQR2, panel-wise CA-CQR2 with
// Householder-style trailing updates (the paper's §V subpanel
// proposal). Per panel of width b: one CA-CQR2 of the m×b panel, then
// for the columns to its right the product R_k,rest = Q_kᵀ·A_rest on
// Algorithm 8's lines 1–5 (line 2 at the GEMM rate) and the trailing
// update, an MM3D and a local axpy.
func PanelCACQR2Lines(m, n, b int, prm CACQRParams) (map[string]Cost, error) {
	c, d := prm.C, prm.D
	if b < 1 || b%c != 0 || n%b != 0 {
		return nil, fmt.Errorf("costmodel: panel width %d incompatible with c=%d, n=%d", b, c, n)
	}
	if m%d != 0 {
		return nil, fmt.Errorf("costmodel: m=%d not divisible by d=%d", m, d)
	}
	mloc := int64(m / d)
	bloc := int64(b / c)
	lines := make(map[string]Cost)
	for k := 0; k < n/b; k++ {
		addLadderLines(lines, m, b, 2, false, prm)
		restLoc := int64(n-(k+1)*b) / int64(c)
		if restLoc == 0 {
			continue
		}
		addGramLines(lines, mloc, bloc, restLoc, 2*bloc*restLoc*mloc, c, d)
		addLine(lines, LineUpdate, MM3D(mloc, bloc, restLoc, c).Add(Cost{Flops: 2 * mloc * restLoc}))
	}
	return lines, nil
}

// TSQR models the binary-tree Tall-Skinny QR with explicit Q formation
// (internal/tsqr) on a 1D grid of p processors: a local Householder QR,
// log₂p up-sweep rounds (each a 2n×n QR on the survivor), the matching
// down-sweep (two n³ multiplies per level on the survivor), an R
// broadcast, and the final local Q assembly. The returned cost is the
// busiest rank's (rank 0, which participates in every tree level) —
// exactly the per-rank maximum the runtime measures.
func TSQR(m, n, p int) (Cost, error) {
	if m%p != 0 || m/p < n {
		return Cost{}, fmt.Errorf("costmodel: tsqr shape m=%d n=%d P=%d", m, n, p)
	}
	nn := int64(n)
	mloc := int64(m / p)
	hhQR := func(rows int64) int64 { return 2*rows*nn*nn - 2*nn*nn*nn/3 }

	levels := log2Ceil(p)
	c := Cost{Flops: hhQR(mloc)}
	// Up-sweep recv + down-sweep send on rank 0, one of each per level.
	c.Msgs += 2 * levels
	c.Words += 2 * levels * nn * nn
	c.Flops += levels * (hhQR(2*nn) + 2*2*nn*nn*nn)
	// R broadcast.
	c = c.Add(Bcast(nn*nn, p))
	// Final Q assembly.
	c.Flops += 2 * mloc * nn * nn
	return c, nil
}

// BlockedTSQR models tsqr.BlockedFactor on a 1D grid of p processors:
// per width-b panel, one reduction-tree TSQR of the m×b panel (the TSQR
// recurrence above, which is the busiest rank's cost), then — for the
// trailing columns — two BGS2 reorthogonalization passes, each a local
// b×rest projection (2·(m/p)·b·rest flops), an Allreduce of the b·rest
// coefficient block, and the local rank-b update (2·(m/p)·rest·b flops).
// Mirrors the implementation's charges exactly, so e2e runs measure this
// prediction plus only the final Q gather.
func BlockedTSQR(m, n, b, p int) (Cost, error) {
	if b < 1 || n%b != 0 {
		return Cost{}, fmt.Errorf("costmodel: blocked-tsqr panel width %d does not divide n=%d", b, n)
	}
	if m%p != 0 || m/p < b {
		return Cost{}, fmt.Errorf("costmodel: blocked-tsqr shape m=%d b=%d P=%d", m, b, p)
	}
	mloc := int64(m / p)
	var c Cost
	np := n / b
	for k := 0; k < np; k++ {
		pc, err := TSQR(m, b, p)
		if err != nil {
			return Cost{}, err
		}
		c = c.Add(pc)
		rest := int64(n - (k+1)*b)
		if rest == 0 {
			continue
		}
		// Two BGS2 passes: project, Allreduce, update.
		c.Flops += 2 * (2 * int64(b) * rest * mloc)
		c = c.Add(Allreduce(int64(b)*rest, p).Scale(2))
		c.Flops += 2 * (2 * mloc * rest * int64(b))
	}
	return c, nil
}

// PGEQRF models the ScaLAPACK baseline's critical path on a pr×pc grid
// with panel width nb, mirroring internal/pgeqrf: per panel, the column
// factorization's 2 allreduces per column plus the T-formation allreduce
// (column communicator), the V/T row broadcast, and the trailing-update
// allreduce. Panel flop work (vector-level, memory bound) is charged to
// the PanelFlops class; blocked trailing updates to the BLAS-3 class.
//
// Because panels rotate around process columns but remain sequentially
// dependent, the critical path sums every panel's cost (unlike the
// uniform CQR algorithms where per-rank counters suffice).
func PGEQRF(m, n, pr, pc, nb int) (Cost, error) {
	if m%pr != 0 || n%nb != 0 {
		return Cost{}, fmt.Errorf("costmodel: pgeqrf shape %dx%d grid %dx%d nb %d", m, n, pr, pc, nb)
	}
	var c Cost
	np := n / nb
	for k := 0; k < np; k++ {
		// Active local height of this panel: rows at or below the
		// diagonal, ≈ (m − k·nb)/pr.
		rows := int64(m-k*nb) / int64(pr)
		if rows < 1 {
			rows = 1
		}
		nb64 := int64(nb)

		// Panel factorization: per column one 2-word allreduce (norm +
		// pivot), and for all but the last column an allreduce of the
		// remaining-column dot products (nb−1−jj words).
		c = c.Add(Allreduce(2, pr).Scale(nb64))
		if nb > 1 {
			c = c.Add(Cost{Msgs: Allreduce(1, pr).Msgs * (nb64 - 1),
				Words: 2 * (nb64 * (nb64 - 1) / 2) * delta(pr)})
		}
		// Vector-level panel flops: ~4·rows per remaining column per
		// reflector ⇒ ~2·rows·nb² total, memory bound.
		c.PanelFlops += 2 * rows * nb64 * nb64
		// T formation: Gram allreduce + small local work.
		c = c.Add(Allreduce(nb64*nb64, pr))
		c.UpdateFlops += 2 * rows * nb64 * nb64 // VᵀV

		// Row broadcast of V, T, taus.
		c = c.Add(Bcast(rows*nb64+nb64*nb64+nb64, pc))

		// Trailing update over the local share of the remaining columns.
		width := int64(n-(k+1)*nb) / int64(pc)
		if width > 0 {
			c.UpdateFlops += 2 * rows * width * nb64 // W = VᵀC
			c = c.Add(Allreduce(nb64*width, pr))
			c.UpdateFlops += 2 * nb64 * nb64 * width // TᵀW
			c.UpdateFlops += 2 * rows * width * nb64 // C −= V·(TᵀW)
		}
	}
	return c, nil
}
