package bench

import (
	"fmt"

	"cacqr/internal/costmodel"
	"cacqr/internal/plan"
)

// ExtPanel is an extension figure for the paper's §V subpanel proposal:
// the flop overhead of CA-CQR2 relative to Householder's 2mn² − ⅔n³ as a
// function of panel width, for a square matrix (the worst case for
// whole-matrix CholeskyQR2), along with the latency price.
func ExtPanel() *Figure {
	const m, n = 1 << 13, 1 << 13
	grid := plan.Plan{Variant: plan.PanelCACQR2, C: 8, D: 8} // P = 512
	f := &Figure{
		ID:     "ExtPanel",
		Title:  fmt.Sprintf("Panel-wise CA-CQR2 on a %dx%d matrix, 8x8x8 grid (paper §V proposal)", m, n),
		XLabel: "panel width b",
		YLabel: "flop overhead vs Householder (x) / α-units (k)",
	}
	over := Series{Label: "flops/HH"}
	lat := Series{Label: "alpha(k)"}
	hh := float64(2*int64(m)*int64(n)*int64(n) - 2*int64(n)*int64(n)*int64(n)/3)
	for b := n / 32; b <= n; b *= 2 {
		f.Ticks = append(f.Ticks, fmt.Sprintf("%d", b))
		grid.PanelWidth = b
		p, err := plan.Price(m, n, grid, costmodel.Machine{})
		if err != nil {
			over.AddPoint(0, false)
			lat.AddPoint(0, false)
			continue
		}
		over.AddPoint(float64(p.Cost.TotalFlops())*float64(p.Procs)/hh, true)
		lat.AddPoint(float64(p.Cost.Msgs)/1000, true)
	}
	f.Series = append(f.Series, over, lat)
	first, last := over.Y[0], over.Y[len(over.Y)-1]
	f.Notes = append(f.Notes, fmt.Sprintf(
		"narrow panels cut the flop overhead from %.2fx (whole-matrix CQR2) to %.2fx at the cost of more synchronization",
		last, first))
	return f
}

// ExtMemory is an extension figure for the §IV memory claim: per-process
// footprint versus the replication parameter c at fixed P, for a
// tall-skinny and a square-ish matrix.
func ExtMemory() *Figure {
	const p = 1 << 12
	f := &Figure{
		ID:     "ExtMemory",
		Title:  fmt.Sprintf("CA-CQR2 per-process memory (words) vs c, P=%d", p),
		XLabel: "c",
		YLabel: "words per process",
	}
	shapes := []struct {
		label string
		m, n  int
	}{
		{"tall 2^24 x 2^6", 1 << 24, 1 << 6},
		{"square-ish 2^20 x 2^12", 1 << 20, 1 << 12},
	}
	for c := 1; c <= 16; c *= 2 {
		f.Ticks = append(f.Ticks, fmt.Sprintf("%d", c))
	}
	for _, sh := range shapes {
		s := Series{Label: sh.label}
		for c := 1; c <= 16; c *= 2 {
			row, err := plan.Price(sh.m, sh.n, plan.Plan{Variant: plan.CACQR2, C: c, D: p / (c * c)}, costmodel.Machine{})
			s.AddPoint(float64(row.MemWords), err == nil)
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"the matrix-copy term mn/(dc) = c*mn/P grows with replication c (the paper's memory-for-communication trade);",
		"the Gram term n^2/c^2 shrinks, so square-ish shapes have a footprint-minimizing c.")
	return f
}
