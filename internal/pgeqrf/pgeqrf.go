package pgeqrf

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

import (
	"fmt"
	"math"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// Grid is a pr × pc process grid for the 2D algorithm. Ranks linearize
// as prow + pr·pcol.
type Grid struct {
	PR, PC   int
	Row, Col int
	World    transport.Comm // all pr·pc members
	ColComm  transport.Comm // fixed pcol, varying prow (size pr); index = prow
	RowComm  transport.Comm // fixed prow, varying pcol (size pc); index = pcol
	proc     transport.Proc
}

// NewGrid builds the process grid over the first pr·pc members of comm;
// members beyond that receive nil.
func NewGrid(comm transport.Comm, pr, pc int) (*Grid, error) {
	if pr < 1 || pc < 1 {
		return nil, fmt.Errorf("pgeqrf: invalid grid %dx%d", pr, pc)
	}
	if comm.Size() < pr*pc {
		return nil, fmt.Errorf("pgeqrf: need %d ranks, have %d", pr*pc, comm.Size())
	}
	rank := comm.Index()
	if rank >= pr*pc {
		// Outside the grid: the same three calls, naming no one, keep
		// this rank's count of derived communicators in step.
		for i := 0; i < 3; i++ {
			comm.Subgroup(nil)
		}
		return nil, nil
	}
	// Every member makes the same three calls, each with the list of
	// its own group, so a group's members derive one communicator id.
	g := &Grid{PR: pr, PC: pc, Row: rank % pr, Col: rank / pr, proc: comm.Proc()}
	all := make([]int, pr*pc)
	for i := range all {
		all[i] = i
	}
	col := make([]int, pr)
	for prow := range col {
		col[prow] = prow + pr*g.Col
	}
	row := make([]int, pc)
	for pcol := range row {
		row[pcol] = g.Row + pr*pcol
	}
	g.World, g.ColComm, g.RowComm = comm.Subgroup(all), comm.Subgroup(col), comm.Subgroup(row)
	return g, nil
}

// Matrix is one process's piece of the (MB=1, NB=nb) distributed matrix:
// local rows are the global rows ≡ Row (mod PR); local column groups are
// the width-nb panels ≡ Col (mod PC), stored panel-contiguous.
type Matrix struct {
	G      *Grid
	M, N   int
	NB     int
	Panels []int // global panel indices owned, ascending
	Local  *lin.Matrix
}

// NewMatrix distributes an m×n global matrix (replicated input) over the
// grid. Requires pr | m and nb | n.
func NewMatrix(g *Grid, global *lin.Matrix, nb int) (*Matrix, error) {
	loc, err := LocalBlock(global, g.Row+g.PR*g.Col, g.PR, g.PC, nb)
	if err != nil {
		return nil, err
	}
	return NewMatrixLocal(g, loc, global.Rows, global.Cols, nb)
}

// ownedPanels lists the global panel indices a process column owns under
// the (MB=1, NB=nb) cyclic layout, ascending.
func ownedPanels(n, nb, col, pc int) []int {
	var panels []int
	for k := col; k < n/nb; k += pc {
		panels = append(panels, k)
	}
	return panels
}

// LocalBlock extracts rank's local block of the layout NewMatrix
// distributes: rows ≡ rank%pr (mod pr), width-nb panels ≡ rank/pr
// (mod pc), panel-contiguous. Pure data movement with no grid or
// communicator, so a coordinator can stage per-rank inputs before a
// distributed run.
func LocalBlock(global *lin.Matrix, rank, pr, pc, nb int) (*lin.Matrix, error) {
	m, n := global.Rows, global.Cols
	if m%pr != 0 {
		return nil, fmt.Errorf("pgeqrf: m=%d not divisible by pr=%d", m, pr)
	}
	if nb < 1 || n%nb != 0 {
		return nil, fmt.Errorf("pgeqrf: block size %d does not divide n=%d", nb, n)
	}
	row, col := rank%pr, rank/pr
	panels := ownedPanels(n, nb, col, pc)
	mloc := m / pr
	loc := lin.NewMatrix(mloc, len(panels)*nb)
	for s, k := range panels {
		for li := 0; li < mloc; li++ {
			gi := li*pr + row
			for jj := 0; jj < nb; jj++ {
				loc.Set(li, s*nb+jj, global.At(gi, k*nb+jj))
			}
		}
	}
	return loc, nil
}

// NewMatrixLocal wraps an already-extracted local block (LocalBlock's
// layout) for a rank of the grid — the entry point when the input
// arrives pre-sharded rather than replicated.
func NewMatrixLocal(g *Grid, local *lin.Matrix, m, n, nb int) (*Matrix, error) {
	if m%g.PR != 0 {
		return nil, fmt.Errorf("pgeqrf: m=%d not divisible by pr=%d", m, g.PR)
	}
	if nb < 1 || n%nb != 0 {
		return nil, fmt.Errorf("pgeqrf: block size %d does not divide n=%d", nb, n)
	}
	panels := ownedPanels(n, nb, g.Col, g.PC)
	if local.Rows != m/g.PR || local.Cols != len(panels)*nb {
		return nil, fmt.Errorf("pgeqrf: local block is %dx%d, want %dx%d",
			local.Rows, local.Cols, m/g.PR, len(panels)*nb)
	}
	return &Matrix{G: g, M: m, N: n, NB: nb, Panels: panels, Local: local}, nil
}

// localSlot returns the local panel slot of global panel k, or -1.
func (a *Matrix) localSlot(k int) int {
	if k%a.G.PC != a.G.Col {
		return -1
	}
	s := (k - a.G.Col) / a.G.PC
	if s >= len(a.Panels) {
		return -1
	}
	return s
}

// Factors holds the distributed factored form: R in place of the upper
// triangle and the Householder panel data needed to apply Q.
type Factors struct {
	A    *Matrix
	Taus []float64 // n reflector coefficients, replicated
	// panels holds, per panel k, the active rows of the broadcast V
	// (rows at/below the panel's top, this rank's share) and the
	// compact-WY T factor — what ApplyQT needs.
	panels []storedPanel
}

// storedPanel is the per-rank remnant of one factored panel.
type storedPanel struct {
	vAct *lin.Matrix // (mloc − li0) × nb active reflector rows
	t    *lin.Matrix // nb × nb upper-triangular T
	li0  int         // first active local row
}

// Factor computes the QR factorization in place (the PGEQRF analog).
func Factor(a *Matrix) (*Factors, error) {
	g := a.G
	p := g.proc
	m, n, nb := a.M, a.N, a.NB
	if m < n {
		return nil, fmt.Errorf("pgeqrf: requires m ≥ n, got %dx%d", m, n)
	}
	mloc := a.Local.Rows
	np := n / nb
	taus := make([]float64, n)
	panels := make([]storedPanel, 0, np)

	for k := 0; k < np; k++ {
		owner := k % g.PC
		j0 := k * nb

		// Panel V: full local height, nb columns (zeros above the
		// global diagonal); replicated row-wise after the broadcast.
		var v *lin.Matrix
		var t *lin.Matrix // upper-triangular T of the compact WY form
		panelTaus := make([]float64, nb)

		if g.Col == owner {
			slot := a.localSlot(k)
			if slot < 0 {
				return nil, fmt.Errorf("pgeqrf: internal panel ownership error")
			}
			pan := a.Local.View(0, slot*nb, mloc, nb)
			v = lin.NewMatrix(mloc, nb)
			for jj := 0; jj < nb; jj++ {
				jg := j0 + jj // global pivot row/column
				// Partial squared norm below the diagonal and pivot
				// element, combined in one allreduce.
				li0 := firstLocalRow(jg+1, g.Row, g.PR)
				var sigma float64
				for li := li0; li < mloc; li++ {
					x := pan.At(li, jj)
					sigma += x * x
				}
				buf := []float64{sigma, 0}
				pivotOwner := jg % g.PR
				var pivLi int
				if g.Row == pivotOwner {
					pivLi = jg / g.PR
					buf[1] = pan.At(pivLi, jj)
				}
				red, err := g.ColComm.Allreduce(buf)
				if err != nil {
					return nil, err
				}
				sigma, x0 := red[0], red[1]

				var tau, beta float64
				if sigma == 0 {
					tau, beta = 0, x0
				} else {
					beta = -math.Copysign(math.Sqrt(x0*x0+sigma), x0)
					tau = (beta - x0) / beta
				}
				taus[jg] = tau
				panelTaus[jj] = tau

				// Form v (unit at the pivot) and zero the column below
				// the diagonal; the pivot position receives beta.
				scale := x0 - beta
				for li := li0; li < mloc; li++ {
					if tau != 0 {
						v.Set(li, jj, pan.At(li, jj)/scale)
					}
					pan.Set(li, jj, 0)
				}
				if g.Row == pivotOwner {
					v.Set(pivLi, jj, 1)
					pan.Set(pivLi, jj, beta)
				}
				if err := p.Compute(int64(3 * (mloc - li0))); err != nil {
					return nil, err
				}

				// Apply the reflector to the remaining panel columns:
				// w = vᵀ·pan[:, jj+1:], allreduced over the column comm.
				rest := nb - jj - 1
				if rest > 0 && tau != 0 {
					w := make([]float64, rest)
					for li := li0; li < mloc; li++ {
						vi := v.At(li, jj)
						if vi == 0 {
							continue
						}
						for cc := 0; cc < rest; cc++ {
							w[cc] += vi * pan.At(li, jj+1+cc)
						}
					}
					if g.Row == pivotOwner {
						for cc := 0; cc < rest; cc++ {
							w[cc] += pan.At(pivLi, jj+1+cc)
						}
					}
					wr, err := g.ColComm.Allreduce(w)
					if err != nil {
						return nil, err
					}
					for li := li0; li < mloc; li++ {
						vi := v.At(li, jj)
						if vi == 0 {
							continue
						}
						for cc := 0; cc < rest; cc++ {
							pan.Set(li, jj+1+cc, pan.At(li, jj+1+cc)-tau*vi*wr[cc])
						}
					}
					if g.Row == pivotOwner {
						for cc := 0; cc < rest; cc++ {
							pan.Set(pivLi, jj+1+cc, pan.At(pivLi, jj+1+cc)-tau*wr[cc])
						}
					}
					if err := p.Compute(int64(4 * (mloc - li0 + 1) * rest)); err != nil {
						return nil, err
					}
				}
			}

			// Form T from the allreduced Gram matrix of V (PDLARFT).
			li0p := firstLocalRow(j0, g.Row, g.PR)
			vAct := v.View(li0p, 0, mloc-li0p, nb)
			gram := lin.NewMatrix(nb, nb)
			lin.Gemm(true, false, 1, vAct, vAct, 0, gram)
			if err := p.Compute(lin.GemmFlops(nb, nb, vAct.Rows)); err != nil {
				return nil, err
			}
			gramAll, err := dist.Allreduce(g.ColComm, gram, nil)
			if err != nil {
				return nil, err
			}
			t = formT(gramAll, panelTaus)
		}
		// Non-owner columns take no part in the panel factorization:
		// their column communicator is a different group.

		// Broadcast only the active part of V (rows at or below the
		// panel's top row — entries above are zero) plus T and the
		// taus along the row communicator. All members of a process
		// row share the same active height.
		li0k := firstLocalRow(j0, g.Row, g.PR)
		var payload []float64
		if v != nil {
			payload = packPanel(v.View(li0k, 0, mloc-li0k, nb), t, panelTaus)
		}
		got, err := g.RowComm.Bcast(owner, payload)
		if err != nil {
			return nil, err
		}
		vAct, tGot, panelTaus := unpackPanel(got, mloc-li0k, nb)
		t = tGot
		copy(taus[j0:j0+nb], panelTaus)
		panels = append(panels, storedPanel{vAct: vAct, t: t, li0: li0k})

		// Trailing update C ← (I − V·Tᵀ·Vᵀ)·C on the locally owned panels
		// to the right, over the active rows only and in place: owned
		// panels are stored in ascending order, so those right of k are
		// the contiguous suffix of local slots after the last one ≤ k.
		first := 0
		for first < len(a.Panels) && a.Panels[first] <= k {
			first++
		}
		if width := (len(a.Panels) - first) * nb; width > 0 {
			if err := g.reflect(vAct, t, a.Local.View(li0k, first*nb, mloc-li0k, width), true); err != nil {
				return nil, err
			}
		}
	}
	return &Factors{A: a, Taus: taus, panels: panels}, nil
}

// ApplyQT applies Qᵀ to a right-hand side distributed like A's rows: each
// rank passes its m/pr × nrhs block of B (element-cyclic rows) and
// receives the same block of Qᵀ·B. This is PDORMQR's pattern: per panel,
// W = Tᵀ·(VᵀB) with a column-communicator allreduce, then B −= V·W —
// and it is how least-squares solves use the factored form.
func (f *Factors) ApplyQT(b *lin.Matrix) (*lin.Matrix, error) { return f.apply(b, true) }

// ApplyQ applies Q to a right-hand side distributed like A's rows —
// the inverse of ApplyQT: panels run in reverse order and each applies
// the block reflector I − V·T·Vᵀ (W = T·(VᵀB) instead of Tᵀ·(VᵀB)).
// Applying it to the distributed identity's first n columns forms the
// explicit reduced Q (the PDORGQR pattern), which is how the public
// FactorizePlan entry point turns the factored form into the package's
// (Q, R) contract.
func (f *Factors) ApplyQ(b *lin.Matrix) (*lin.Matrix, error) { return f.apply(b, false) }

// apply runs every panel's block reflector over a copy of b: first
// panel first with Tᵀ (trans, Qᵀ·B), or last panel first with T (Q·B).
func (f *Factors) apply(b *lin.Matrix, trans bool) (*lin.Matrix, error) {
	if b.Rows != f.A.Local.Rows {
		return nil, fmt.Errorf("pgeqrf: rhs has %d local rows, want %d", b.Rows, f.A.Local.Rows)
	}
	out := b.Clone()
	for i := range f.panels {
		pan := f.panels[i]
		if !trans {
			pan = f.panels[len(f.panels)-1-i]
		}
		act := out.View(pan.li0, 0, pan.vAct.Rows, out.Cols)
		if err := f.A.G.reflect(pan.vAct, pan.t, act, trans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reflect applies one panel's block reflector to act, the rows of a
// row-distributed operand that the panel's reflectors reach, in place:
// act ← (I − V·op(T)·Vᵀ)·act with op(T) = Tᵀ when trans, computed as
// W = op(T)·(Vᵀ·act), Vᵀ·act summed over the column communicator, then
// act −= V·W. Every member of the column takes part, one with no
// active rows too (it contributes zeros).
func (g *Grid) reflect(vAct, t, act *lin.Matrix, trans bool) error {
	nb, rows, width := vAct.Cols, act.Rows, act.Cols
	w := lin.NewMatrix(nb, width)
	lin.Gemm(true, false, 1, vAct, act, 0, w)
	if err := g.proc.Compute(lin.GemmFlops(nb, width, rows)); err != nil {
		return err
	}
	wAll, err := dist.Allreduce(g.ColComm, w, nil)
	if err != nil {
		return err
	}
	tw := lin.NewMatrix(nb, width)
	lin.Gemm(trans, false, 1, t, wAll, 0, tw)
	lin.Gemm(false, false, -1, vAct, tw, 1, act)
	return g.proc.Compute(lin.GemmFlops(nb, width, nb) + lin.GemmFlops(rows, width, nb))
}

// GatherR assembles the n×n upper-triangular factor on every rank by a
// world allreduce of each process's contributions (an output path, not
// part of the timed algorithm).
func (f *Factors) GatherR() (*lin.Matrix, error) {
	a := f.A
	g := a.G
	n, nb := a.N, a.NB
	r := lin.NewMatrix(n, n)
	for s, k := range a.Panels {
		for jj := 0; jj < nb; jj++ {
			gj := k*nb + jj
			for li := 0; li < a.Local.Rows; li++ {
				gi := li*g.PR + g.Row
				if gi <= gj && gi < n {
					r.Set(gi, gj, a.Local.At(li, s*nb+jj))
				}
			}
		}
	}
	return dist.Allreduce(g.World, r, nil)
}

// firstLocalRow returns the first local row index whose global row ≥ g0.
func firstLocalRow(g0, row, pr int) int {
	if g0 <= row {
		return 0
	}
	return (g0 - row + pr - 1) / pr
}

// formT builds the nb×nb upper-triangular compact-WY factor from the
// full Gram matrix G = VᵀV and the taus: T[j][j] = tau_j,
// T[0:j, j] = −tau_j · T[0:j, 0:j] · G[0:j, j].
func formT(gram *lin.Matrix, taus []float64) *lin.Matrix {
	nb := len(taus)
	t := lin.NewMatrix(nb, nb)
	for j := 0; j < nb; j++ {
		t.Set(j, j, taus[j])
		for i := 0; i < j; i++ {
			var s float64
			for k := i; k < j; k++ {
				s += t.At(i, k) * gram.At(k, j)
			}
			t.Set(i, j, -taus[j]*s)
		}
	}
	return t
}

// packPanel lays the active rows of V, then T, then the taus end to end:
// the one raw payload of a panel's row broadcast.
func packPanel(vAct, t *lin.Matrix, taus []float64) []float64 {
	out := make([]float64, 0, (vAct.Rows+t.Rows)*len(taus)+len(taus))
	for _, m := range []*lin.Matrix{vAct, t} {
		for i := 0; i < m.Rows; i++ {
			out = append(out, m.Data[i*m.Stride:i*m.Stride+m.Cols]...)
		}
	}
	return append(out, taus...)
}

// unpackPanel splits a broadcast payload into the active rows of V, the
// T factor, and the taus, each a copy: on the broadcast root the payload
// is the sender's own.
func unpackPanel(data []float64, rows, nb int) (vAct, t *lin.Matrix, taus []float64) {
	vAct, t = lin.NewMatrix(rows, nb), lin.NewMatrix(nb, nb)
	copy(vAct.Data, data[:rows*nb])
	copy(t.Data, data[rows*nb:rows*nb+nb*nb])
	taus = append([]float64(nil), data[rows*nb+nb*nb:]...)
	return vAct, t, taus
}
