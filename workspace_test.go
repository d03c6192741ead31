package cacqr

import (
	"fmt"
	"sync"
	"testing"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
	"cacqr/internal/simmpi"
)

// workspaceUse runs p's rank body on pre-distributed blocks and returns
// the largest workspace high-water mark over the ranks, in words, and
// the total of their heap fallbacks.
func workspaceUse(t *testing.T, a *lin.Matrix, p plan.Plan) (highWater, overflows int) {
	t.Helper()
	m, n := a.Rows, a.Cols
	var mu sync.Mutex
	_, err := simmpi.Run(p.C*p.D*p.C, func(pr *simmpi.Proc) error {
		g, err := grid.New(pr.World(), p.C, p.D)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, p.D, p.C, g.Y, g.X)
		if err != nil {
			return err
		}
		prm := core.Params{InverseDepth: p.InverseDepth, BaseSize: p.BaseSize}
		switch p.Variant {
		case plan.PanelCACQR2:
			_, _, err = core.PanelCACQR2(g, ad.Local, m, n, p.PanelWidth, prm)
		case plan.ShiftedCQR3:
			_, _, err = core.ShiftedCACQR3(g, ad.Local, m, n, prm)
		default:
			_, _, err = core.CACQR2(g, ad.Local, m, n, prm)
		}
		ws := g.Workspace(0)
		mu.Lock()
		highWater = max(highWater, ws.HighWater())
		overflows += ws.Overflows()
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return highWater, overflows
}

// TestWorkspaceStaysInsideMemoryModel: like α, β and γ, the modeled
// memory M of a grid plan is an identity the run is held to. A rank's
// workspace is sized from the plan's memory row less the input block the
// row counts, everything the rank body holds comes out of it, and so no
// request may overflow it: measured peak ≤ modeled M, for every CA-CQR2
// and panel row the planner offers for a small shape (its 1D grids
// included), a non-power-of-two grid, the two benchmark shapes, and the
// shifted ladder on a 1D grid and on a cube.
func TestWorkspaceStaysInsideMemoryModel(t *testing.T) {
	type run struct {
		m, n int
		p    plan.Plan
	}
	var runs []run
	rows, err := PlanGrid(128, 16, 8, Options{IncludeBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rows {
		if p.Variant == plan.CACQR2 || p.Variant == plan.PanelCACQR2 {
			runs = append(runs, run{128, 16, p})
		}
	}
	if len(runs) < 4 {
		t.Fatalf("PlanGrid(128, 16, 8) offered %d grid rows, expected the CA-CQR2 row and its panel variants", len(runs))
	}
	runs = append(runs,
		run{1152, 48, plan.Plan{Variant: plan.CACQR2, C: 3, D: 3}},
		run{2048, 128, plan.Plan{Variant: plan.CACQR2, C: 2, D: 4}}, // grid-sim
		run{4096, 64, plan.Plan{Variant: plan.CACQR2, C: 2, D: 2}},  // grid-tcp
		run{2048, 128, plan.Plan{Variant: plan.PanelCACQR2, C: 2, D: 4, PanelWidth: 32}},
		run{256, 64, plan.Plan{Variant: plan.CACQR2, C: 1, D: 4}},
		run{64, 64, plan.Plan{Variant: plan.CACQR2, C: 2, D: 2}}, // square: blocks as wide as tall
		run{64, 64, plan.Plan{Variant: plan.CACQR2, C: 2, D: 4}}, // and wider than tall
		// Blocked substitution holds half-width blocks per level: the row grows with the knob.
		run{2048, 128, plan.Plan{Variant: plan.CACQR2, C: 2, D: 4, InverseDepth: 1}},
		run{1152, 48, plan.Plan{Variant: plan.CACQR2, C: 3, D: 3, InverseDepth: 2}},
		run{512, 64, plan.Plan{Variant: plan.PanelCACQR2, C: 2, D: 2, PanelWidth: 16, InverseDepth: 1}},
		// The shifted ladder's third pass runs in place, inside CA-CQR2's row.
		run{256, 64, plan.Plan{Variant: plan.ShiftedCQR3, C: 1, D: 4}},
		run{256, 32, plan.Plan{Variant: plan.ShiftedCQR3, C: 2, D: 2}},
	)
	for _, r := range runs {
		p, err := plan.Price(r.m, r.n, r.p, costmodel.Machine{})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s_%dx%d_c%d_d%d_b%d_inv%d", p.Variant, r.m, r.n, p.C, p.D, p.PanelWidth, p.InverseDepth)
		t.Run(name, func(t *testing.T) {
			highWater, overflows := workspaceUse(t, lin.RandomMatrix(r.m, r.n, 5), p)
			input := (r.m / p.D) * (r.n / p.C)
			t.Logf("peak %d words (%d in the workspace + the %d-word input block), modeled %d", highWater+input, highWater, input, p.MemWords)
			if overflows != 0 {
				t.Errorf("%d requests overflowed the workspace", overflows)
			}
			if int64(highWater+input) > p.MemWords {
				t.Errorf("measured peak %d words > modeled %d", highWater+input, p.MemWords)
			}
		})
	}
}
