package bench

import (
	"fmt"

	"cacqr/internal/costmodel"
	"cacqr/internal/plan"
)

// ExtTSQR is an extension figure beyond the paper: 1D-CQR2 against the
// communication-optimal binary-tree TSQR (the paper's references [4],[5])
// in the tall-skinny weak-scaling regime, on the Stampede2 model. It
// quantifies the tradeoff the paper's introduction cites: CholeskyQR2
// needs a logarithmic factor less synchronization, while TSQR is
// unconditionally stable.
func ExtTSQR() *Figure {
	mach := costmodel.Stampede2
	const mloc, n = 1 << 15, 512
	f := &Figure{
		ID:     "ExtTSQR",
		Title:  fmt.Sprintf("Tall-skinny weak scaling: 1D-CQR2 vs TSQR, %d local rows x %d cols (%s)", mloc, n, mach.Name),
		XLabel: "Nodes(N)",
		YLabel: "Gigaflops/s/Node",
	}
	cqr2 := Series{Label: "1D-CQR2"}
	ts := Series{Label: "TSQR"}
	caBest := Series{Label: "CA-CQR2(best c)"}
	var nodes []int
	for nd := 2; nd <= 512; nd *= 4 {
		nodes = append(nodes, nd)
		f.Ticks = append(f.Ticks, fmt.Sprintf("%d", nd))
	}
	for _, nd := range nodes {
		p := mach.PPN * nd
		m := mloc * p
		cqr2.AddPoint(gflopsPerNode(mach, m, n, nd, plan.Plan{Variant: plan.CACQR2, C: 1, D: p}))
		ts.AddPoint(gflopsPerNode(mach, m, n, nd, plan.Plan{Variant: plan.TSQR, Procs: p}))
		best := bestCACQR2(mach, m, n, p, nd, 0)
		caBest.AddPoint(best, best > 0)
	}
	f.Series = append(f.Series, cqr2, ts, caBest)

	last := len(nodes) - 1
	if ts.Y[last] > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"at N=%d: 1D-CQR2/TSQR = %.2fx (TSQR pays a log P chain of small factorizations; CQR2 pays redundant n^3 work once)",
			nodes[last], cqr2.Y[last]/ts.Y[last]))
	}
	return f
}
