package cacqr

import (
	"math"
	"testing"
)

// TestEntryPointsLeaveTheirInputsAlone: no entry point writes to the
// caller's matrix or right-hand side. It is what lets the fused batch
// path, the streamed path and the distributors read the caller's storage
// in place instead of copying it first. Every call is checked on its
// own, bit for bit.
func TestEntryPointsLeaveTheirInputsAlone(t *testing.T) {
	const m, n = 256, 16
	a := RandomMatrix(m, n, 11)
	b := make([]float64, m)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	wantA := append([]float64(nil), a.Data...)
	wantB := append([]float64(nil), b...)
	unchanged := func(name string) {
		t.Helper()
		for i, v := range a.Data {
			if math.Float64bits(v) != math.Float64bits(wantA[i]) {
				t.Fatalf("%s wrote A.Data[%d]: %g, was %g", name, i, v, wantA[i])
			}
		}
		for i, v := range b {
			if math.Float64bits(v) != math.Float64bits(wantB[i]) {
				t.Fatalf("%s wrote b[%d]: %g, was %g", name, i, v, wantB[i])
			}
		}
	}
	grid := GridSpec{C: 2, D: 4}
	runPlan := func(p Plan) error { _, err := FactorizePlan(a, p, Options{}); return err }
	plans, err := PlanGrid(m, n, 8, Options{CondEst: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"CholeskyQR2", func() error { _, _, err := CholeskyQR2(a); return err }},
		{"ShiftedCQR3", func() error { _, _, err := ShiftedCQR3(a); return err }},
		{"HouseholderQR", func() error { _, _, err := HouseholderQR(a); return err }},
		{"FactorizeOnGrid", func() error { _, err := FactorizeOnGrid(a, grid, Options{}); return err }},
		{"FactorizePlan/panel", func() error { return runPlan(Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: 8}) }},
		{"FactorizePlan/1d", func() error { return runPlan(Plan{Variant: VariantCACQR2, C: 1, D: 8}) }},
		{"FactorizePlan/shifted", func() error { return runPlan(Plan{Variant: VariantShiftedCQR3, C: 1, D: 8}) }},
		{"FactorizePlan/tsqr", func() error { return runPlan(Plan{Variant: VariantTSQR, Procs: 4}) }},
		{"FactorizePlan/pgeqrf", func() error { return runPlan(Plan{Variant: VariantPGEQRF, D: 2, C: 2, PanelWidth: 8}) }},
		{"AutoFactorize", func() error { _, err := AutoFactorize(a, 8, Options{}); return err }},
		{"FactorizePlan", func() error { _, err := FactorizePlan(a, plans[0], Options{}); return err }},
		{"SolveLeastSquares", func() error { _, err := SolveLeastSquares(a, b, grid, Options{}); return err }},
		{"SolveLeastSquaresSeq", func() error { _, err := SolveLeastSquaresSeq(a, b); return err }},
		{"FactorizeStreaming", func() error {
			_, err := FactorizeStreaming(SourceFromDense(a), nil, Options{PanelRows: 64})
			return err
		}},
		{"Submit", func() error {
			_, err := newTestServer(t, ServerOptions{Procs: 8}).Submit(SubmitRequest{A: a, B: b, CondEst: 10})
			return err
		}},
		{"SubmitBatch/fused", func() error {
			it := newTestServer(t, ServerOptions{Procs: 8}).SubmitBatch([]SubmitRequest{{A: a, B: b, CondEst: 10}, {A: a, CondEst: 10}})
			for _, i := range it {
				if i.Err == nil && !i.Result.Fused {
					t.Errorf("SubmitBatch/fused: an item did not take the fused path")
				}
			}
			return firstErr(it)
		}},
		{"SubmitBatch/tsqr", func() error {
			// The hint alone routes this key past the Gram family.
			it := newTestServer(t, ServerOptions{Procs: 8}).SubmitBatch([]SubmitRequest{{A: a, B: b, CondEst: 1e15}, {A: a, CondEst: 1e15}})
			for _, i := range it {
				if i.Err == nil && i.Result.Plan.Variant != VariantTSQR {
					t.Errorf("SubmitBatch/tsqr: routed to %v", i.Result.Plan.Variant)
				}
			}
			return firstErr(it)
		}},
	} {
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		unchanged(c.name)
	}
}

func firstErr(items []BatchItem) error {
	for _, it := range items {
		if it.Err != nil {
			return it.Err
		}
	}
	return nil
}
