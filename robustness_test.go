package cacqr

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

// E2e dispatch tests for the condition-aware planner and the newly
// executable plan rows: PGEQRF and blocked TSQR. Together with the
// κ-sweep property tests in internal/core and the routing tests in
// internal/plan, these are the acceptance scenario of the robustness
// milestone: every plan row PlanGrid returns executes, and κ ≳ 10⁷
// inputs reach O(ε) orthogonality through AutoFactorize while plain
// CQR2 measurably cannot.

func TestAutoFactorizeRoutesOnCondEst(t *testing.T) {
	const m, n, procs = 1024, 64, 16
	// Below the threshold: the hint is benign and the tall shape stays
	// in the 1D CholeskyQR2 regime.
	low := RandomWithCond(m, n, 1e3, 4)
	res, err := AutoFactorize(low, procs, Options{CondEst: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantCACQR2 || res.Plan.C != 1 {
		t.Fatalf("κ=1e3 routed to %v, want ca-cqr2 on a 1D grid", res.Plan)
	}
	if res.CondEst != 1e3 {
		t.Fatalf("recorded CondEst %g, want the caller's hint", res.CondEst)
	}
	// Above it: the same shape must leave the CQR2 family for the
	// shifted variant and still deliver machine-precision factors.
	high := RandomWithCond(m, n, 1e10, 4)
	res, err = AutoFactorize(high, procs, Options{CondEst: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantShiftedCQR3 || res.Plan.C != 1 {
		t.Fatalf("κ=1e10 routed to %v, want shifted-cqr3 on a 1D grid", res.Plan)
	}
	if e := OrthogonalityError(res.Q); e > 1e-8 {
		t.Fatalf("κ=1e10 shifted run: orthogonality %g", e)
	}
	if e := ResidualNorm(high, res.Q, res.R); e > 1e-10 {
		t.Fatalf("κ=1e10 shifted run: residual %g", e)
	}
	// The shifted dispatch obeys the same validation contract as every
	// other variant: measured cost = predicted cost + the scatter of A
	// and the gather of Q.
	if res.Stats.Flops != res.Plan.Cost.TotalFlops() {
		t.Fatalf("measured flops %d != predicted %d", res.Stats.Flops, res.Plan.Cost.TotalFlops())
	}
	io := oneDLoading(m, n, res.Plan.Procs)
	if res.Stats.Msgs != res.Plan.Cost.Msgs+io.Msgs || res.Stats.Words != res.Plan.Cost.Words+io.Words {
		t.Fatalf("measured comm (%d, %d) != predicted (%d, %d) + scatter and gather (%d, %d)",
			res.Stats.Msgs, res.Stats.Words, res.Plan.Cost.Msgs, res.Plan.Cost.Words, io.Msgs, io.Words)
	}
}

func TestAutoFactorizeEstimatesCondWhenUnset(t *testing.T) {
	// The acceptance scenario with no hint at all: κ=1e10 at 1024×64.
	// AutoFactorize must measure the conditioning itself, route off the
	// CQR2 family, and return Q with ‖QᵀQ−I‖ ≤ 1e-8 — while plain CQR2
	// on the same matrix measurably does not deliver that.
	const m, n, procs = 1024, 64, 16
	a := RandomWithCond(m, n, 1e10, 4)
	res, err := AutoFactorize(a, procs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CondEst <= 1e7 {
		t.Fatalf("estimator recorded κ=%g, want ≫ 1e7", res.CondEst)
	}
	if res.Plan.Variant != VariantShiftedCQR3 && res.Plan.Variant != VariantTSQR {
		t.Fatalf("estimated routing chose %v", res.Plan)
	}
	if e := OrthogonalityError(res.Q); e > 1e-8 {
		t.Fatalf("auto-routed orthogonality %g", e)
	}
	if q, _, err := CholeskyQR2(a); err == nil {
		if e := OrthogonalityError(q); e <= 1e-8 {
			t.Fatalf("plain CQR2 unexpectedly also delivered %g", e)
		}
	}
	// Well-conditioned input, no hint: the estimator must not scare the
	// planner away from the cheap family.
	b := RandomMatrix(1024, 64, 42)
	res, err = AutoFactorize(b, procs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantCACQR2 {
		t.Fatalf("benign matrix routed to %v", res.Plan)
	}
	if res.CondEst <= 0 || math.IsInf(res.CondEst, 1) {
		t.Fatalf("benign matrix estimated κ=%g", res.CondEst)
	}
}

func TestFactorizePlanExecutesPGEQRFRow(t *testing.T) {
	// Wire-up acceptance: a PGEQRF row from the planner executes and
	// matches the Householder reference factorization to 1e-12. No
	// measured-vs-predicted cost assertion here by design: the PGEQRF
	// row's Cost prices the factorization only, while execution also
	// pays the unmodeled explicit-Q output path (see the VariantPGEQRF
	// and PlanGrid docs) — the exact contract is asserted for the
	// CQR-family and TSQR rows instead.
	const m, n = 256, 64
	a := RandomMatrix(m, n, 9)
	plans, err := PlanGrid(m, n, 8, Options{IncludeBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	var row *Plan
	for i := range plans {
		if plans[i].Variant == VariantPGEQRF {
			row = &plans[i]
			break
		}
	}
	if row == nil {
		t.Fatal("no PGEQRF row surfaced")
	}
	res, err := FactorizePlan(a, *row, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesHouseholder(t, a, res, 1e-12)

	// And a genuinely 2D grid through the direct entry point, same
	// contract.
	res, err = FactorizePlan(a, Plan{Variant: VariantPGEQRF, D: 4, C: 2, PanelWidth: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Msgs == 0 || res.Stats.Words == 0 {
		t.Fatalf("4x2 grid did not communicate: %+v", res.Stats)
	}
	assertMatchesHouseholder(t, a, res, 1e-12)
}

func TestPGEQRFWhereSomeProcessRowsRunOutOfRows(t *testing.T) {
	// Square with nb < pr: the last panels' reflectors start below every
	// row some process rows own. Those rows still belong to the column
	// allreduce of each panel when Q is applied — they contribute zeros —
	// or the column's members fall out of step (the run used to end in
	// the watchdog).
	for _, sh := range []struct{ m, n, pr, pc, nb int }{{8, 8, 4, 1, 2}, {16, 16, 4, 2, 2}, {16, 16, 8, 1, 2}, {24, 16, 8, 1, 4}} {
		a := RandomMatrix(sh.m, sh.n, 17)
		res, err := FactorizePlan(a, Plan{Variant: VariantPGEQRF, D: sh.pr, C: sh.pc, PanelWidth: sh.nb}, Options{Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
		assertMatchesHouseholder(t, a, res, 1e-12)
	}
}

func TestFactorizePlanExecutesBlockedTSQRRow(t *testing.T) {
	// 256×64 on 8 ranks: m/p = 32 < n, so the plan list contains
	// blocked TSQR rows (panelWidth > 0). Each must execute, match the
	// reference factorization to 1e-12, and charge exactly its modeled
	// cost plus the final Q gather.
	const m, n, procs = 256, 64, 8
	a := RandomMatrix(m, n, 10)
	plans, err := PlanGrid(m, n, procs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, p := range plans {
		if p.Variant != VariantTSQR || p.PanelWidth == 0 || p.PanelWidth == n {
			continue
		}
		res, err := FactorizePlan(a, p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		assertMatchesHouseholder(t, a, res, 1e-12)
		if res.Stats.Flops != p.Cost.TotalFlops() {
			t.Fatalf("%v: measured flops %d != predicted %d", p, res.Stats.Flops, p.Cost.TotalFlops())
		}
		gather := costmodel.Allgather(int64(m*n), p.Procs)
		if res.Stats.Msgs != p.Cost.Msgs+gather.Msgs || res.Stats.Words != p.Cost.Words+gather.Words {
			t.Fatalf("%v: measured comm (%d, %d) != predicted + gather (%d, %d)",
				p, res.Stats.Msgs, res.Stats.Words, p.Cost.Msgs+gather.Msgs, p.Cost.Words+gather.Words)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no blocked TSQR rows to execute")
	}
}

func TestEveryPlanRowIsExecutable(t *testing.T) {
	// The milestone's headline: every row PlanGrid returns — baselines
	// included — executes through FactorizePlan and reproduces A.
	const m, n, procs = 128, 16, 8
	a := RandomMatrix(m, n, 3)
	plans, err := PlanGrid(m, n, procs, Options{IncludeBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Variant]bool{}
	for _, p := range plans {
		if seen[p.Variant] {
			continue // one execution per variant keeps the test fast
		}
		seen[p.Variant] = true
		res, err := FactorizePlan(a, p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if e := ResidualNorm(a, res.Q, res.R); e > 1e-11 {
			t.Fatalf("%v: residual %g", p, e)
		}
		if e := OrthogonalityError(res.Q); e > 1e-11 {
			t.Fatalf("%v: orthogonality %g", p, e)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("only variants %v exercised", seen)
	}
}

func TestKappaSweepTSQRUnconditionallyStable(t *testing.T) {
	// The plain Householder tree must hold O(ε) orthogonality and
	// residual at every κ of the sweep — including where both
	// CholeskyQR2 and the one-shift CQR3 break down. This is what makes
	// it a safe routing target for the planner's worst case. The
	// blocked variant's cross-panel BGS2 updates lose orthogonality as
	// O(ε·κ) — the planner gates it by exactly that bound
	// (plan.PredictOrthogonality), asserted here against measurements.
	const m, n, procs = 256, 32, 4
	for _, kappa := range []float64{1e2, 1e5, 1e8, 1e12, 1e15} {
		a := RandomWithCond(m, n, kappa, 17)
		res, err := FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: procs}, Options{})
		if err != nil {
			t.Fatalf("κ=%g: %v", kappa, err)
		}
		if e := OrthogonalityError(res.Q); e > 1e-12 {
			t.Fatalf("κ=%g: TSQR orthogonality %g", kappa, e)
		}
		if e := ResidualNorm(a, res.Q, res.R); e > 1e-12 {
			t.Fatalf("κ=%g: TSQR residual %g", kappa, e)
		}
		res, err = FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: procs, PanelWidth: 8}, Options{})
		if err != nil {
			t.Fatalf("κ=%g blocked: %v", kappa, err)
		}
		orth := OrthogonalityError(res.Q)
		if bound := math.Max(8*lin.Eps, kappa*lin.Eps); orth > bound {
			t.Fatalf("κ=%g: blocked TSQR orthogonality %g over the modeled ε·κ bound %g", kappa, orth, bound)
		}
		if kappa <= 1e5 && orth > 1e-12 {
			t.Fatalf("κ=%g: blocked TSQR orthogonality %g inside its O(ε) regime", kappa, orth)
		}
		if e := ResidualNorm(a, res.Q, res.R); e > 1e-12 {
			t.Fatalf("κ=%g: blocked TSQR residual %g", kappa, e)
		}
	}
}

// TestFactorizeShifted1DErrorPaths: bad shifted-cqr3 rows are errors.
func TestFactorizeShifted1DErrorPaths(t *testing.T) {
	a := RandomMatrix(96, 8, 1)
	if _, err := FactorizePlan(a, Plan{Variant: VariantShiftedCQR3, C: 1, D: 7}, Options{}); err == nil {
		t.Fatal("indivisible m accepted")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantShiftedCQR3, Procs: 4}, Options{}); err == nil {
		t.Fatal("a plan without a grid accepted")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantShiftedCQR3, C: 2, D: 3}, Options{}); err == nil {
		t.Fatal("c ∤ d accepted")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantShiftedCQR3, C: 1, D: 4}, Options{Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestFactorizePGEQRFErrorPaths: bad pgeqrf rows are errors.
func TestFactorizePGEQRFErrorPaths(t *testing.T) {
	a := RandomMatrix(64, 16, 1)
	if _, err := FactorizePlan(a, Plan{Variant: VariantPGEQRF, D: 0, C: 2, PanelWidth: 4}, Options{}); err == nil {
		t.Fatal("zero pr accepted")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantPGEQRF, D: 3, C: 1, PanelWidth: 4}, Options{}); err == nil {
		t.Fatal("pr ∤ m accepted")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantPGEQRF, D: 4, C: 1, PanelWidth: 5}, Options{}); err == nil {
		t.Fatal("nb ∤ n accepted")
	}
	wide := RandomMatrix(16, 64, 1)
	if _, err := FactorizePlan(wide, Plan{Variant: VariantPGEQRF, D: 4, C: 1, PanelWidth: 4}, Options{}); err == nil {
		t.Fatal("m < n accepted")
	}
}

func TestCondEstValidationEverywhere(t *testing.T) {
	// Options validation: a negative or NaN CondEst is an error at
	// every planner-facing entry point, with a message that names the
	// knob; unset (0) remains valid and triggers the estimator.
	a := RandomMatrix(64, 8, 1)
	for name, bad := range map[string]float64{"negative": -2, "NaN": math.NaN()} {
		opts := Options{CondEst: bad}
		if _, err := PlanGrid(64, 8, 4, opts); err == nil || !strings.Contains(err.Error(), "CondEst") {
			t.Fatalf("%s CondEst: PlanGrid err = %v", name, err)
		}
		if _, err := AutoFactorize(a, 4, opts); err == nil {
			t.Fatalf("%s CondEst accepted by AutoFactorize", name)
		}
		for _, p := range []Plan{{Variant: VariantCACQR2, C: 1, D: 1}, {Variant: VariantShiftedCQR3, C: 1, D: 4}} {
			if _, err := FactorizePlan(a, p, opts); err == nil {
				t.Fatalf("%s CondEst accepted by FactorizePlan(%s)", name, p.Variant)
			}
		}
	}
	// +Inf (the estimator's own "numerically singular" verdict) is a
	// legal hint: it routes to the unconditionally stable variants.
	res, err := AutoFactorize(RandomMatrix(1024, 64, 2), 16, Options{CondEst: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantTSQR {
		t.Fatalf("κ=+Inf routed to %v", res.Plan)
	}
}

// assertMatchesHouseholder checks a result against the sign-normalized
// Householder reference factorization element-wise.
func assertMatchesHouseholder(t *testing.T, a *Dense, res *Result, tol float64) {
	t.Helper()
	qr, rr, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Q.Data {
		if d := math.Abs(res.Q.Data[i] - qr.Data[i]); d > tol {
			t.Fatalf("Q differs from reference by %g at %d", d, i)
		}
	}
	for i := range res.R.Data {
		if d := math.Abs(res.R.Data[i] - rr.Data[i]); d > tol {
			t.Fatalf("R differs from reference by %g at %d", d, i)
		}
	}
	if e := ResidualNorm(a, res.Q, res.R); e > tol {
		t.Fatalf("residual %g", e)
	}
	if e := OrthogonalityError(res.Q); e > tol {
		t.Fatalf("orthogonality %g", e)
	}
}

// One mistake, one error: a wide (m < n) input used to come back as six
// different messages depending on the entry point — through the 1D and
// shifted runs as the typed ErrIllConditioned, the very error an
// escalation ladder acts on. Every entry point now reports the same
// cacqr: shape error, ahead of any verdict on the plan's extents, and it
// is not a conditioning verdict.
func TestWideMatrixIsOneShapeError(t *testing.T) {
	wide := RandomMatrix(16, 32, 1)
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var want string
	for name, call := range map[string]func() error{
		"FactorizeOnGrid": func() error { _, err := FactorizeOnGrid(wide, GridSpec{C: 2, D: 2}, Options{}); return err },
		"FactorizePlan": func() error {
			_, err := FactorizePlan(wide, Plan{Variant: VariantShiftedCQR3, C: 1, D: 4}, Options{})
			return err
		},
		"FactorizePlan/unsized": func() error {
			_, err := FactorizePlan(wide, Plan{Variant: VariantCACQR2}, Options{})
			return err
		},
		"AutoFactorize": func() error { _, err := AutoFactorize(wide, 4, Options{}); return err },
		"FactorizeStreaming": func() error {
			_, err := FactorizeStreaming(SourceFromDense(wide), nil, Options{PanelRows: 16})
			return err
		},
		"SolveLeastSquares": func() error {
			_, err := SolveLeastSquares(wide, make([]float64, 16), GridSpec{C: 2, D: 2}, Options{})
			return err
		},
		"Server.Submit": func() error { _, err := srv.Submit(SubmitRequest{A: wide}); return err },
		"Server.SubmitStream": func() error {
			_, err := srv.SubmitStream(StreamRequest{Source: SourceFromDense(wide)})
			return err
		},
	} {
		err := call()
		if err == nil {
			t.Errorf("%s accepted a 16x32 matrix", name)
			continue
		}
		if errors.Is(err, ErrIllConditioned) {
			t.Errorf("%s reports a shape mistake as ErrIllConditioned: %v", name, err)
		}
		if !strings.HasPrefix(err.Error(), "cacqr: 16x32 matrix") {
			t.Errorf("%s: %v, want the cacqr: shape error", name, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%s: %q, other entry points say %q", name, err, want)
		}
	}
}

// A run is checked completely before it is launched. Each bad shape or
// extent here is submitted over a TCP transport whose only worker
// address refuses connections: the shape error must come back, never a
// dial error — which would mean the mesh was being built for a job that
// could not run.
func TestBadShapesFailBeforeLaunch(t *testing.T) {
	a := RandomMatrix(96, 8, 1)
	dead := Options{Transport: TCPTransport("127.0.0.1:1"), Timeout: 5 * time.Second}
	row := func(p Plan) func() (*Result, error) {
		return func() (*Result, error) { return FactorizePlan(a, p, dead) }
	}
	for name, call := range map[string]func() (*Result, error){
		"grid d∤m":          func() (*Result, error) { return FactorizeOnGrid(a, GridSpec{C: 1, D: 5}, dead) },
		"grid c∤n":          func() (*Result, error) { return FactorizeOnGrid(RandomMatrix(96, 9, 1), GridSpec{C: 2, D: 2}, dead) },
		"grid c∤d":          func() (*Result, error) { return FactorizeOnGrid(a, GridSpec{C: 2, D: 3}, dead) },
		"grid panel∤n":      row(Plan{Variant: VariantPanelCACQR2, C: 1, D: 2, PanelWidth: 3}),
		"1d P∤m":            row(Plan{Variant: VariantCACQR2, C: 1, D: 7}),
		"shifted P∤m":       row(Plan{Variant: VariantShiftedCQR3, C: 1, D: 7}),
		"shifted c∤d":       row(Plan{Variant: VariantShiftedCQR3, C: 2, D: 3}),
		"tsqr P not 2^k":    row(Plan{Variant: VariantTSQR, Procs: 3}),
		"tsqr blocks short": row(Plan{Variant: VariantTSQR, Procs: 16}),
		"tsqr panel∤n":      row(Plan{Variant: VariantTSQR, Procs: 2, PanelWidth: 3}),
		"pgeqrf pr∤m":       row(Plan{Variant: VariantPGEQRF, D: 5, C: 1, PanelWidth: 4}),
		"pgeqrf nb∤n":       row(Plan{Variant: VariantPGEQRF, D: 2, C: 1, PanelWidth: 3}),
		"plan row d∤m":      row(Plan{Variant: VariantCACQR2, C: 1, D: 5}),
		"plan row P=0":      row(Plan{Variant: VariantCACQR2}),
		"plan row unknown":  row(Plan{Variant: "bogus", Procs: 2}),
		"wide": func() (*Result, error) {
			return FactorizePlan(RandomMatrix(8, 96, 1), Plan{Variant: VariantCACQR2, C: 1, D: 2}, dead)
		},
		"negative workers": func() (*Result, error) {
			o := dead
			o.Workers = -1
			return FactorizePlan(a, Plan{Variant: VariantCACQR2, C: 1, D: 2}, o)
		},
		"negative inv depth": func() (*Result, error) {
			o := dead
			o.InverseDepth = -1
			return FactorizeOnGrid(a, GridSpec{C: 1, D: 2}, o)
		},
	} {
		_, err := call()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "cacqr: ") || strings.Contains(err.Error(), "dial") || strings.Contains(err.Error(), "127.0.0.1") {
			t.Errorf("%s: %v — want a cacqr: error raised before any worker is dialled", name, err)
		}
	}
	// The same transport with a runnable job does reach the dialler:
	// the checks above are not passing because TCP is never attempted.
	if _, err := FactorizePlan(a, Plan{Variant: VariantCACQR2, C: 1, D: 2}, dead); err == nil || strings.HasPrefix(err.Error(), "cacqr: ") {
		t.Errorf("a valid job on a dead worker returned %v, want a transport error", err)
	}
}

// Misuse is an error, never a panic: a nil matrix, or a hand-assembled
// Dense whose Data does not hold Rows×Cols values, used to index out of
// range inside lin.
func TestMalformedDenseIsAnError(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, a := range map[string]*Dense{
		"nil":       nil,
		"short":     {Rows: 64, Cols: 8, Data: make([]float64, 100)},
		"long":      {Rows: 64, Cols: 8, Data: make([]float64, 1000)},
		"negative":  {Rows: -4, Cols: -2, Data: make([]float64, 8)},
		"no values": {Rows: 64, Cols: 8},
	} {
		for entry, call := range map[string]func() error{
			"CholeskyQR2":     func() error { _, _, err := CholeskyQR2(a); return err },
			"ShiftedCQR3":     func() error { _, _, err := ShiftedCQR3(a); return err },
			"HouseholderQR":   func() error { _, _, err := HouseholderQR(a); return err },
			"FactorizeOnGrid": func() error { _, err := FactorizeOnGrid(a, GridSpec{C: 1, D: 2}, Options{}); return err },
			"FactorizePlan": func() error {
				_, err := FactorizePlan(a, Plan{Variant: VariantCACQR2, C: 1, D: 2}, Options{})
				return err
			},
			"AutoFactorize":        func() error { _, err := AutoFactorize(a, 4, Options{}); return err },
			"SolveLeastSquares":    func() error { _, err := SolveLeastSquares(a, make([]float64, 64), AutoGrid(4), Options{}); return err },
			"SolveLeastSquaresSeq": func() error { _, err := SolveLeastSquaresSeq(a, make([]float64, 64)); return err },
			"Server.Submit":        func() error { _, err := srv.Submit(SubmitRequest{A: a}); return err },
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%s matrix) panicked: %v", entry, name, r)
					}
				}()
				if err := call(); err == nil || !strings.HasPrefix(err.Error(), "cacqr: ") {
					t.Errorf("%s(%s matrix) returned %v, want a cacqr: error", entry, name, err)
				}
			}()
		}
	}
}

// A matrix whose Gram matrix overflows to +Inf is a typed error from the
// CholeskyQR ladder, not a NaN Q with a nil error: Cholesky used to take
// the infinite pivot (it is neither ≤ 0 nor NaN). A Gram matrix that is
// merely indefinite in floating point is the same typed error on the
// grid.
func TestCQR2BreaksOnOverflowingGram(t *testing.T) {
	for _, big := range []float64{1e200, 1e160} {
		a, err := FromData(4, 2, []float64{big, 0, 0, big, big, 0, 0, 1e-200})
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := CholeskyQR2(a)
		if !errors.Is(err, ErrIllConditioned) || !errors.Is(err, lin.ErrNotPositiveDefinite) {
			t.Errorf("%g: CholeskyQR2 returned %v (Q %v), want ErrIllConditioned wrapping ErrNotPositiveDefinite", big, err, q)
		}
		if _, _, err := ShiftedCQR3(a); !errors.Is(err, ErrIllConditioned) {
			t.Errorf("%g: ShiftedCQR3 returned %v, want ErrIllConditioned", big, err)
		}
	}
	// The grid runs the same ladder: κ² past 1/ε breaks CFR3D's base
	// case, and the breakdown is typed alike.
	ill := RandomWithCond(256, 16, 1e10, 1)
	res, err := FactorizeOnGrid(ill, GridSpec{C: 2, D: 4}, Options{})
	if !errors.Is(err, ErrIllConditioned) || !errors.Is(err, lin.ErrNotPositiveDefinite) {
		t.Errorf("FactorizeOnGrid(κ = 1e10) on 2×4×2 returned %v (result %v), want ErrIllConditioned wrapping ErrNotPositiveDefinite", err, res)
	}
}

// TestPanelPlanPredictsItsOrthogonality holds the §V panel rows'
// predicted loss to what they measure: each panel's CholeskyQR2 is
// O(ε), but the trailing updates lose orthogonality across panels like
// block Gram-Schmidt, about κε, so a κ-blind prediction would let the
// router keep a panel row whose Q is far from orthogonal.
func TestPanelPlanPredictsItsOrthogonality(t *testing.T) {
	const m, n = 512, 64
	for _, b := range []int{8, 16, 32} {
		p := Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: b}
		for _, seed := range []int64{7, 11} {
			for _, kappa := range []float64{1, 1e2, 1e4, 1e6, 8e6} {
				res, err := FactorizePlan(RandomWithCond(m, n, kappa, seed), p, Options{})
				if err != nil {
					t.Fatalf("b=%d seed %d κ=%g: %v", b, seed, kappa, err)
				}
				got, want := OrthogonalityError(res.Q), plan.PredictOrthogonality(p.Variant, m, n, b, kappa)
				if got > want {
					t.Errorf("b=%d seed %d κ=%g: measured ‖QᵀQ−I‖ %.3g > predicted %.3g", b, seed, kappa, got, want)
				}
			}
		}
	}
}
