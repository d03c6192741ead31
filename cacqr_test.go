package cacqr

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"strings"
	"testing"
)

func TestDenseRoundTrip(t *testing.T) {
	d, err := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", d.At(1, 2))
	}
	d.Set(0, 1, 9)
	if d.At(0, 1) != 9 {
		t.Fatal("Set failed")
	}
	if _, err := FromData(2, 2, []float64{1}); err == nil {
		t.Fatal("bad FromData accepted")
	}
}

func TestCholeskyQR2Public(t *testing.T) {
	a := RandomMatrix(40, 8, 1)
	q, r, err := CholeskyQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(q); e > 1e-12 {
		t.Fatalf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, q, r); e > 1e-13 {
		t.Fatalf("residual %g", e)
	}
}

func TestShiftedCQR3Public(t *testing.T) {
	a := RandomWithCond(60, 10, 1e10, 2)
	q, r, err := ShiftedCQR3(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(q); e > 1e-10 {
		t.Fatalf("orthogonality %g", e)
	}
	_ = r
}

func TestHouseholderQRPublic(t *testing.T) {
	a := RandomMatrix(12, 12, 3)
	q, r, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := ResidualNorm(a, q, r); e > 1e-12 {
		t.Fatalf("residual %g", e)
	}
}

func TestFactorizeOnGrid(t *testing.T) {
	a := RandomMatrix(32, 8, 4)
	res, err := FactorizeOnGrid(a, GridSpec{C: 2, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(res.Q); e > 1e-11 {
		t.Fatalf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-11 {
		t.Fatalf("residual %g", e)
	}
	if res.Stats.Msgs == 0 || res.Stats.Words == 0 || res.Stats.Flops == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
	// The measured cost must equal the model's prediction — the public
	// API exposes the same validated quantities.
	model, err := ModelCACQR2(32, 8, GridSpec{C: 2, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// FactorizeOnGrid adds two gathers on top of the algorithm; the
	// algorithm cost is a lower bound and the bulk of the total.
	if res.Stats.Msgs < model.Msgs || res.Stats.Words < model.Words {
		t.Fatalf("measured (%d,%d) below model (%d,%d)",
			res.Stats.Msgs, res.Stats.Words, model.Msgs, model.Words)
	}
	if res.Stats.Flops != model.TotalFlops() {
		t.Fatalf("measured flops %d != model %d", res.Stats.Flops, model.TotalFlops())
	}
}

func TestFactorizeOnGridValidation(t *testing.T) {
	a := RandomMatrix(8, 4, 5)
	if _, err := FactorizeOnGrid(a, GridSpec{C: 0, D: 1}, Options{}); err == nil {
		t.Fatal("c=0 accepted")
	}
	if _, err := FactorizeOnGrid(a, GridSpec{C: 2, D: 3}, Options{}); err == nil {
		t.Fatal("c∤d accepted")
	}
	if _, err := FactorizeOnGrid(a, GridSpec{C: 4, D: 2}, Options{}); err == nil {
		t.Fatal("d<c accepted")
	}
}

func TestFactorizeOnGrid1D(t *testing.T) {
	a := RandomMatrix(64, 4, 6)
	res, err := FactorizeOnGrid(a, GridSpec{C: 1, D: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-11 {
		t.Fatalf("residual %g", e)
	}
}

func TestModelPrediction(t *testing.T) {
	c, err := ModelCACQR2(1<<21, 1<<12, GridSpec{C: 8, D: 1024}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gf := PredictGFlopsPerNode(Stampede2, c, 1<<21, 1<<12, 1024)
	if gf < 10 || gf > 2000 {
		t.Fatalf("implausible prediction %g GF/s/node", gf)
	}
	s, err := ModelPGEQRF(1<<21, 1<<12, 16384, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	sgf := PredictGFlopsPerNode(Stampede2, s, 1<<21, 1<<12, 1024)
	if gf < sgf {
		t.Fatalf("CA-CQR2 (%g) should beat the baseline (%g) at 1024 nodes", gf, sgf)
	}
	if !strings.Contains(Stampede2.Name, "Stampede") {
		t.Fatal("machine export broken")
	}
}

func TestFactorizeOnGridPanelVariant(t *testing.T) {
	a := RandomMatrix(32, 16, 8)
	panel := Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: 4}
	res, err := FactorizePlan(a, panel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(res.Q); e > 1e-10 {
		t.Fatalf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-10 {
		t.Fatalf("residual %g", e)
	}
	// The panel variant must spend fewer flops than whole-matrix CQR2 on
	// near-square inputs.
	plain, err := FactorizeOnGrid(a, GridSpec{C: 2, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flops >= plain.Stats.Flops {
		t.Fatalf("panel flops %d not below plain %d", res.Stats.Flops, plain.Stats.Flops)
	}
	// Invalid widths are rejected.
	panel.PanelWidth = 3
	if _, err := FactorizePlan(a, panel, Options{}); err == nil {
		t.Fatal("c∤PanelWidth accepted")
	}
}

// TestFactorizeTSQRPublic runs the tsqr rows, plain and blocked, through
// the public FactorizePlan.
func TestFactorizeTSQRPublic(t *testing.T) {
	// Plain TSQR on an ill-conditioned matrix (where CholeskyQR2 would
	// need the shifted variant).
	a := RandomWithCond(64, 8, 1e10, 9)
	res, err := FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(res.Q); e > 1e-10 {
		t.Fatalf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-10 {
		t.Fatalf("residual %g", e)
	}

	// Blocked variant when local blocks are shorter than n.
	b := RandomMatrix(64, 24, 10)
	res, err = FactorizePlan(b, Plan{Variant: VariantTSQR, Procs: 8, PanelWidth: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := ResidualNorm(b, res.Q, res.R); e > 1e-10 {
		t.Fatalf("blocked residual %g", e)
	}

	// Validation: indivisible m.
	if _, err := FactorizePlan(RandomMatrix(10, 2, 1), Plan{Variant: VariantTSQR, Procs: 4}, Options{}); err == nil {
		t.Fatal("indivisible m accepted")
	}
}

func TestGridSpecProcs(t *testing.T) {
	if p := (GridSpec{C: 2, D: 4}).Procs(); p != 16 {
		t.Fatalf("Procs = %d", p)
	}
}

func TestPublicMatchesSequentialReference(t *testing.T) {
	a := RandomMatrix(48, 8, 7)
	q1, r1, err := CholeskyQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FactorizeOnGrid(a, GridSpec{C: 2, D: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Data {
		if math.Abs(r1.Data[i]-res.R.Data[i]) > 1e-9 {
			t.Fatalf("R element %d differs: %g vs %g", i, r1.Data[i], res.R.Data[i])
		}
	}
	_ = q1
}

// The sequential entry points and the grid ones on the 1 × 1 × 1 grid run
// the same ladder over the same kernels: their factors are the same bits,
// for the two-pass and the shifted three-pass variant alike.
func TestOneRank1DIsSequentialBitwise(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *Dense
		seq  func(*Dense) (*Dense, *Dense, error)
		oneD Variant
	}{
		{"cqr2", RandomMatrix(1024, 64, 7), CholeskyQR2, VariantCACQR2},
		{"shifted-cqr3", RandomWithCond(1024, 32, 1e10, 5), ShiftedCQR3, VariantShiftedCQR3},
	} {
		q, r, err := tc.seq(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := FactorizePlan(tc.a, Plan{Variant: tc.oneD, C: 1, D: 1}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if denseMaxDiff(q, res.Q) != 0 || denseMaxDiff(r, res.R) != 0 {
			t.Errorf("%s: one-rank grid run differs from the sequential driver (Q by %g, R by %g)",
				tc.name, denseMaxDiff(q, res.Q), denseMaxDiff(r, res.R))
		}
	}
}

// TestWorkersKnobIsDeterministic: the Options.Workers knob may only
// change wall-clock, never results or measured costs — the parallel
// kernels are bitwise identical to the serial ones.
func TestWorkersKnobIsDeterministic(t *testing.T) {
	a := RandomMatrix(128, 16, 7)
	spec := GridSpec{C: 2, D: 4}
	base, err := FactorizeOnGrid(a, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		got, err := FactorizeOnGrid(a, spec, Options{Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		for i := range got.Q.Data {
			if got.Q.Data[i] != base.Q.Data[i] {
				t.Fatalf("Workers=%d: Q differs at %d", w, i)
			}
		}
		for i := range got.R.Data {
			if got.R.Data[i] != base.R.Data[i] {
				t.Fatalf("Workers=%d: R differs at %d", w, i)
			}
		}
		if got.Stats != base.Stats {
			t.Fatalf("Workers=%d: measured costs changed: %+v vs %+v", w, got.Stats, base.Stats)
		}
	}

	tq, err := FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tq4, err := FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: 4}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tq.Q.Data {
		if tq.Q.Data[i] != tq4.Q.Data[i] {
			t.Fatalf("TSQR Workers=4: Q differs at %d", i)
		}
	}
}
