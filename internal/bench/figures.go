package bench

import (
	"fmt"

	"cacqr/internal/costmodel"
	"cacqr/internal/plan"
)

// Scaling-figure generators. Grid variants follow the paper's legends:
// CA-CQR2 curves are labeled (d, c, InverseDepth) for strong scaling and
// (d/c, InverseDepth) for weak scaling; ScaLAPACK curves are labeled
// (pr, BlockSize). Gigaflops/s/node uses the Householder flop count
// 2mn² − (2/3)n³, exactly as §IV-C normalizes.
//
// This file holds the paper's protocol only — which legend points to ask
// about: c in powers of two, d = P/c² on exactly P processes, nb ∈
// {16, 32, 64}. Whether a point fits its matrix and what it costs is
// plan.Price's answer; a point it rejects is a gap in the curve.

// gflopsPerNode asks the planner what legend point p costs on an m×n
// matrix and converts it to the figures' y axis.
func gflopsPerNode(mach costmodel.Machine, m, n, nodes int, p plan.Plan) (float64, bool) {
	p, err := plan.Price(m, n, p, mach)
	if err != nil {
		return 0, false
	}
	return mach.GFlopsPerNode(p.Cost, m, n, nodes), true
}

// cacqr2Point evaluates one CA-CQR2 legend tuple (d, c, InverseDepth).
func cacqr2Point(mach costmodel.Machine, m, n, c, d, inv, nodes int) (float64, bool) {
	return gflopsPerNode(mach, m, n, nodes, plan.Plan{Variant: plan.CACQR2, C: c, D: d, InverseDepth: inv})
}

// sclaPoint evaluates one PGEQRF legend tuple (pr, nb) on pr·pc
// processes. Legend protocol, not an executor rule: the paper plots only
// grids on which every process column owns a block (pc·nb ≤ n).
func sclaPoint(mach costmodel.Machine, m, n, pr, pc, nb, nodes int) (float64, bool) {
	if pc*nb > n {
		return 0, false
	}
	return gflopsPerNode(mach, m, n, nodes, plan.Plan{Variant: plan.PGEQRF, D: pr, C: pc, PanelWidth: nb})
}

// bestCACQR2 sweeps c in powers of two at d = P/c² (and InverseDepth ∈
// 0..maxInv) for the best configuration at a node count, as the paper's
// Figure 1 does.
func bestCACQR2(mach costmodel.Machine, m, n, procs, nodes, maxInv int) float64 {
	best := 0.0
	for c := 1; c*c*c <= procs; c *= 2 {
		for inv := 0; inv <= maxInv; inv++ {
			if v, ok := cacqr2Point(mach, m, n, c, procs/(c*c), inv, nodes); ok && v > best {
				best = v
			}
		}
	}
	return best
}

// bestScaLAPACK sweeps pr in powers of two and nb for the best baseline
// configuration.
func bestScaLAPACK(mach costmodel.Machine, m, n, procs, nodes int) float64 {
	best := 0.0
	for _, nb := range []int{16, 32, 64} {
		for pr := 1; pr <= procs; pr *= 2 {
			if v, ok := sclaPoint(mach, m, n, pr, procs/pr, nb, nodes); ok && v > best {
				best = v
			}
		}
	}
	return best
}

// strongVariant is one legend entry of a strong-scaling panel.
type strongVariant struct {
	// CA-CQR2: DMult·N = d (DDiv divides), fixed c and InverseDepth.
	// ScaLAPACK: PrMult·N = pr (PrDiv divides), block size NB.
	IsCQR2        bool
	DMult, DDiv   int
	C, Inv        int
	PrMult, PrDiv int
	NB            int
}

func (v strongVariant) label() string {
	frac := func(mult, div int) string {
		if div > 1 {
			return fmt.Sprintf("N/%d", div)
		}
		return fmt.Sprintf("%dN", mult)
	}
	if v.IsCQR2 {
		return fmt.Sprintf("CA-CQR2-(%s,%d,%d)", frac(v.DMult, v.DDiv), v.C, v.Inv)
	}
	return fmt.Sprintf("ScaLAPACK-(%s,%d)", frac(v.PrMult, v.PrDiv), v.NB)
}

// strongPanel is one panel of Figures 6–7: an m×n matrix, the c (and
// InverseDepth) of its CA-CQR2 curves, and its ScaLAPACK curves.
type strongPanel struct {
	id       string
	m, n     int
	cs, invs []int
	scla     []strongVariant
}

// strongFigures builds the strong-scaling panels of one machine over the
// given node counts: each legend variant is evaluated on exactly
// P = PPN·N processes, and the closing note compares the best curves at
// the largest N.
func strongFigures(mach costmodel.Machine, nodes []int, panels []strongPanel) []*Figure {
	var figs []*Figure
	for _, p := range panels {
		f := &Figure{
			ID:     p.id,
			Title:  fmt.Sprintf("Strong scaling, %d x %d (%s)", p.m, p.n, mach.Name),
			XLabel: "Nodes(N)",
			YLabel: "Gigaflops/s/Node",
		}
		for _, nd := range nodes {
			f.Ticks = append(f.Ticks, fmt.Sprintf("%d", nd))
		}
		for _, v := range append(cqr2StrongVariantsFor(mach, p.cs, p.invs, nodes[0]), p.scla...) {
			s := Series{Label: v.label()}
			for _, nd := range nodes {
				procs := mach.PPN * nd
				if v.IsCQR2 {
					d := v.DMult * nd / v.DDiv
					if d < 1 || v.C*v.C*d != procs {
						s.AddPoint(0, false)
						continue
					}
					s.AddPoint(cacqr2Point(mach, p.m, p.n, v.C, d, v.Inv, nd))
				} else {
					pr := v.PrMult * nd / v.PrDiv
					if pr < 1 || procs%pr != 0 {
						s.AddPoint(0, false)
						continue
					}
					s.AddPoint(sclaPoint(mach, p.m, p.n, pr, procs/pr, v.NB, nd))
				}
			}
			f.Series = append(f.Series, s)
		}
		f.noteBest(fmt.Sprintf("N=%d", nodes[len(nodes)-1]))
		figs = append(figs, f)
	}
	return figs
}

// noteBest records the best CA-CQR2 and ScaLAPACK curves at the last
// tick (named at) and their ratio.
func (f *Figure) noteBest(at string) {
	last := len(f.Ticks) - 1
	cq, cqLbl := f.Best(last, "CA-CQR2")
	sc, scLbl := f.Best(last, "ScaLAPACK")
	if sc > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"at %s: best CA-CQR2 %.1f (%s) vs best ScaLAPACK %.1f (%s): ratio %.2fx",
			at, cq, cqLbl, sc, scLbl, cq/sc))
	}
}

// cqr2StrongVariantsFor builds the CA-CQR2 legend entries for a strong
// panel: for each c, d = P/c² at the smallest node count.
func cqr2StrongVariantsFor(mach costmodel.Machine, cs []int, invs []int, baseNodes int) []strongVariant {
	var out []strongVariant
	p0 := mach.PPN * baseNodes
	for i, c := range cs {
		d0 := p0 / (c * c)
		v := strongVariant{IsCQR2: true, C: c, Inv: invs[i], DMult: 1, DDiv: 1}
		if d0 >= baseNodes {
			v.DMult = d0 / baseNodes
		} else {
			v.DDiv = baseNodes / d0
		}
		out = append(out, v)
	}
	return out
}

// Fig7 regenerates the paper's Figure 7: strong scaling on Stampede2 for
// the four matrix shapes, nodes 64–1024, with legend variants mirroring
// the paper's (d, c, InverseDepth) tuples.
func Fig7() []*Figure {
	return strongFigures(costmodel.Stampede2, []int{64, 128, 256, 512, 1024}, []strongPanel{
		{"Fig7a", 1 << 19, 1 << 13, []int{8, 16}, []int{0, 0}, []strongVariant{
			{PrMult: 8, PrDiv: 1, NB: 16}, {PrMult: 4, PrDiv: 1, NB: 32}}},
		{"Fig7b", 1 << 21, 1 << 12, []int{4, 8, 2}, []int{0, 0, 0}, []strongVariant{
			{PrMult: 64, PrDiv: 1, NB: 64}, {PrMult: 16, PrDiv: 1, NB: 32}}},
		{"Fig7c", 1 << 23, 1 << 11, []int{1, 2, 4}, []int{0, 0, 0}, []strongVariant{
			{PrMult: 32, PrDiv: 1, NB: 32}, {PrMult: 64, PrDiv: 1, NB: 32}}},
		{"Fig7d", 1 << 25, 1 << 10, []int{1, 2}, []int{0, 0}, []strongVariant{
			{PrMult: 64, PrDiv: 1, NB: 16}, {PrMult: 64, PrDiv: 1, NB: 32}}},
	})
}

// Fig6 regenerates Figure 6: strong scaling on Blue Waters.
func Fig6() []*Figure {
	return strongFigures(costmodel.BlueWaters, []int{32, 64, 128, 256, 512, 1024, 2048}, []strongPanel{
		{"Fig6a", 1 << 20, 1 << 12, []int{4, 2, 8}, []int{0, 0, 2}, []strongVariant{
			{PrMult: 8, PrDiv: 1, NB: 32}, {PrMult: 8, PrDiv: 1, NB: 64}, {PrMult: 4, PrDiv: 1, NB: 32}}},
		{"Fig6b", 1 << 22, 1 << 11, []int{1, 2, 4}, []int{0, 0, 0}, []strongVariant{
			{PrMult: 16, PrDiv: 1, NB: 32}, {PrMult: 16, PrDiv: 1, NB: 64}, {PrMult: 8, PrDiv: 1, NB: 32}}},
	})
}

// weakAxis is §IV-C's progression, the x axis Figures 1(b), 4 and 5 share.
var weakAxis = WeakProgression(7)

func weakTicks() []string {
	var ticks []string
	for _, st := range weakAxis {
		ticks = append(ticks, fmt.Sprintf("(%d,%d)", st.A, st.B))
	}
	return ticks
}

// weakPanel is one panel of Figures 4–5: the base shape bm × bn and the
// legend ratios x (with InverseDepth) of its CA-CQR2 curves.
type weakPanel struct {
	id       string
	bm, bn   int
	xs, invs []int
}

// weakFigures builds the weak-scaling panels of one machine: m = bm·a,
// n = bn·b, N = nodeFactor·a·b². CA-CQR2 variants are labeled by the
// legend ratio d/c = x·a/b with c = c0·b/x^{1/3} as in the paper's
// legends; ScaLAPACK variants by (pr = prMult·a·b, nb).
func weakFigures(mach costmodel.Machine, nodeFactor int, prMults, nbs []int, panels []weakPanel) []*Figure {
	var figs []*Figure
	for _, p := range panels {
		f := &Figure{
			ID:     p.id,
			Title:  fmt.Sprintf("Weak scaling, %d*a x %d*b (%s)", p.bm, p.bn, mach.Name),
			XLabel: "(a,b)",
			YLabel: "Gigaflops/s/Node",
			Ticks:  weakTicks(),
		}
		for i, x := range p.xs {
			s := Series{Label: fmt.Sprintf("CA-CQR2-(%da/b,%d)", x, p.invs[i])}
			for _, st := range weakAxis {
				nodes := nodeFactor * st.A * st.B * st.B
				procs := mach.PPN * nodes
				// d/c = x·a/b and c²·d = P ⇒ c³ = P·b/(x·a).
				c := icbrt(procs * st.B / (x * st.A))
				if c < 1 || procs%(c*c) != 0 {
					s.AddPoint(0, false)
					continue
				}
				s.AddPoint(cacqr2Point(mach, p.bm*st.A, p.bn*st.B, c, procs/(c*c), p.invs[i], nodes))
			}
			f.Series = append(f.Series, s)
		}
		for i, prMult := range prMults {
			s := Series{Label: fmt.Sprintf("ScaLAPACK-(%dab,%d)", prMult, nbs[i])}
			for _, st := range weakAxis {
				nodes := nodeFactor * st.A * st.B * st.B
				procs := mach.PPN * nodes
				pr := prMult * st.A * st.B
				if procs%pr != 0 {
					s.AddPoint(0, false)
					continue
				}
				s.AddPoint(sclaPoint(mach, p.bm*st.A, p.bn*st.B, pr, procs/pr, nbs[i], nodes))
			}
			f.Series = append(f.Series, s)
		}
		f.noteBest("(8,4)")
		figs = append(figs, f)
	}
	return figs
}

// icbrt returns the integer cube root when exact, else 0.
func icbrt(v int) int {
	for c := 1; c*c*c <= v; c++ {
		if c*c*c == v {
			return c
		}
	}
	return 0
}

// Fig5 regenerates Figure 5: weak scaling on Stampede2 (N = 8ab²,
// 64 processes/node).
func Fig5() []*Figure {
	return weakFigures(costmodel.Stampede2, 8, []int{256, 128, 64}, []int{32, 32, 32}, []weakPanel{
		{"Fig5a", 131072, 8192, []int{1, 8, 64}, []int{0, 0, 0}},
		{"Fig5b", 262144, 4096, []int{1, 8, 64}, []int{0, 0, 0}},
		{"Fig5c", 524288, 2048, []int{8, 64, 64}, []int{0, 0, 1}},
		{"Fig5d", 1048576, 1024, []int{64, 64, 512}, []int{0, 1, 0}},
	})
}

// Fig4 regenerates Figure 4: weak scaling on Blue Waters (N = 16ab²,
// 16 processes/node).
func Fig4() []*Figure {
	return weakFigures(costmodel.BlueWaters, 16, []int{256, 128, 64}, []int{32, 64, 32}, []weakPanel{
		{"Fig4a", 65536, 2048, []int{4, 32, 256}, []int{0, 0, 0}},
		{"Fig4b", 262144, 1024, []int{4, 32, 256}, []int{0, 0, 0}},
		{"Fig4c", 1048576, 512, []int{32, 256, 512}, []int{0, 0, 0}},
	})
}

// bestPair adds one point to a ScaLAPACK series and one to a CA-CQR2
// series: the best configuration of each on exactly procs processes.
func bestPair(sq, cq *Series, mach costmodel.Machine, m, n, procs, nodes int) {
	s := bestScaLAPACK(mach, m, n, procs, nodes)
	c := bestCACQR2(mach, m, n, procs, nodes, 1)
	sq.AddPoint(s, s > 0)
	cq.AddPoint(c, c > 0)
}

// Fig1a regenerates Figure 1(a): the best-variant strong-scaling summary
// on Stampede2 across the four Figure 7 shapes.
func Fig1a() *Figure {
	mach := costmodel.Stampede2
	nodes := []int{64, 128, 256, 512, 1024}
	sizes := []struct{ m, n int }{
		{1 << 25, 1 << 10}, {1 << 23, 1 << 11}, {1 << 21, 1 << 12}, {1 << 19, 1 << 13},
	}
	f := &Figure{
		ID:     "Fig1a",
		Title:  "QR strong scaling, best variants (Stampede2)",
		XLabel: "Nodes",
		YLabel: "Gigaflops/s/Node",
	}
	for _, nd := range nodes {
		f.Ticks = append(f.Ticks, fmt.Sprintf("%d", nd))
	}
	last := len(nodes) - 1
	for _, sz := range sizes {
		sq := Series{Label: fmt.Sprintf("ScaLAPACK 2^%d x 2^%d", log2(sz.m), log2(sz.n))}
		cq := Series{Label: fmt.Sprintf("CA-CQR2 2^%d x 2^%d", log2(sz.m), log2(sz.n))}
		for _, nd := range nodes {
			bestPair(&sq, &cq, mach, sz.m, sz.n, mach.PPN*nd, nd)
		}
		f.Series = append(f.Series, sq, cq)
	}
	for i, sz := range sizes {
		if s, c := f.Series[2*i].Y[last], f.Series[2*i+1].Y[last]; s > 0 {
			f.Notes = append(f.Notes, fmt.Sprintf("2^%d x 2^%d at N=1024: CA-CQR2/ScaLAPACK = %.2fx",
				log2(sz.m), log2(sz.n), c/s))
		}
	}
	return f
}

// Fig1b regenerates Figure 1(b): the best-variant weak-scaling summary on
// Stampede2 (the four Figure 5 shape progressions).
func Fig1b() *Figure {
	mach := costmodel.Stampede2
	shapes := []struct {
		cMul, dMul int // size multipliers: m = 131072·a·c̃, n = 1024·b·d̃
	}{
		{8, 1}, {4, 2}, {2, 4}, {1, 8},
	}
	f := &Figure{
		ID:     "Fig1b",
		Title:  "QR weak scaling 131072*a*c x 1024*b*d, best variants (Stampede2)",
		XLabel: "(a,b)",
		YLabel: "Gigaflops/s/Node",
		Ticks:  weakTicks(),
	}
	for _, sh := range shapes {
		sq := Series{Label: fmt.Sprintf("ScaLAPACK c=%d,d=%d", sh.cMul, sh.dMul)}
		cq := Series{Label: fmt.Sprintf("CA-CQR2 c=%d,d=%d", sh.cMul, sh.dMul)}
		for _, st := range weakAxis {
			nodes := 8 * st.A * st.B * st.B
			bestPair(&sq, &cq, mach, 131072*st.A*sh.cMul, 1024*st.B*sh.dMul, mach.PPN*nodes, nodes)
		}
		f.Series = append(f.Series, sq, cq)
	}
	return f
}

func log2(v int) int {
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}
