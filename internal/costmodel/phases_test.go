package costmodel_test

import (
	"testing"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// TestCACQRPerLineMeasuredMatchesModel is the strongest validation of
// Table V: the implementation annotates each Algorithm 8 step with a
// simmpi phase, and the measured per-phase counters must equal the
// model's per-line decomposition exactly, line by line.
func TestCACQRPerLineMeasuredMatchesModel(t *testing.T) {
	const c, d, m, n = 2, 4, 32, 8
	a := lin.RandomMatrix(m, n, 31)
	st, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{
		Cost:    simmpi.CostParams{Alpha: 1, Beta: 1, Gamma: 1},
		Timeout: 120 * time.Second,
	}, func(p *simmpi.Proc) error {
		g, err := grid.New(p.World(), c, d)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		_, _, err = core.CACQR(g, ad.Local, m, n, core.Params{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Phases) == 0 {
		t.Fatal("no phases recorded")
	}

	mloc, nloc := int64(m/d), int64(n/c)
	want := map[string]costmodel.Cost{
		"1:Bcast(A)":       costmodel.Bcast(mloc*nloc, c),
		"2:MM(WtA)":        {Flops: mloc * nloc * nloc},
		"3:Reduce":         costmodel.Reduce(nloc*nloc, c),
		"4:Allreduce":      costmodel.Allreduce(nloc*nloc, d/c),
		"5:Bcast(Z,depth)": costmodel.Bcast(nloc*nloc, c),
		"7:CFR3D":          costmodel.CFR3D(n, c, costmodel.CFR3DOptions{}),
		"8:MM3D(Q)+Transp": costmodel.Transpose(nloc*nloc, c*c).
			Add(costmodel.MM3DTri(mloc, nloc, nloc, c)).
			Add(costmodel.Transpose(nloc*nloc, c*c)),
	}
	for label, w := range want {
		got, ok := st.Phases[label]
		if !ok {
			t.Fatalf("phase %q missing (have %v)", label, keys(st.Phases))
		}
		if got.Msgs != w.Msgs || got.Words != w.Words || got.Flops != w.TotalFlops() {
			t.Errorf("%s: measured (α=%d β=%d γ=%d) vs model (α=%d β=%d γ=%d)",
				label, got.Msgs, got.Words, got.Flops, w.Msgs, w.Words, w.TotalFlops())
		}
	}
	if len(st.Phases) != len(want) {
		t.Fatalf("unexpected extra phases: %v", keys(st.Phases))
	}
}

func keys(m map[string]simmpi.Counters) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
