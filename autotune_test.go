package cacqr

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"fmt"
	"math"
	"testing"

	"cacqr/internal/costmodel"
)

// TestAutoFactorizeEndToEnd is the acceptance scenario: a seeded
// 1024×64 matrix, p ∈ {8, 64}. The factors must meet the same
// tolerances as the FactorizeOnGrid tests, and the planner's predicted
// cost must match the simulated runtime's measured cost exactly up to
// the final Q Allgather (the validation contract the fixed-grid tests
// already enforce).
func TestAutoFactorizeEndToEnd(t *testing.T) {
	a := RandomMatrix(1024, 64, 42)
	for _, procs := range []int{8, 64} {
		res, err := AutoFactorize(a, procs, Options{})
		if err != nil {
			t.Fatalf("p=%d: %v", procs, err)
		}
		if res.Plan == nil {
			t.Fatalf("p=%d: no plan recorded", procs)
		}
		if e := OrthogonalityError(res.Q); e > 1e-11 {
			t.Fatalf("p=%d (%s): orthogonality %g", procs, res.Plan.Variant, e)
		}
		if e := ResidualNorm(a, res.Q, res.R); e > 1e-11 {
			t.Fatalf("p=%d (%s): residual %g", procs, res.Plan.Variant, e)
		}
		if res.Plan.Procs > procs {
			t.Fatalf("p=%d: plan uses %d ranks", procs, res.Plan.Procs)
		}
		// The tall 1024×64 shape is the paper's 1D regime.
		if res.Plan.Variant != VariantCACQR2 || res.Plan.C != 1 {
			t.Fatalf("p=%d: expected the 1D regime, got %v", procs, res.Plan)
		}
		// Measured vs predicted: flops are exactly the model's (loading
		// and gathering move data, not flops); communication is the model
		// plus exactly the scatter of A and the gather of Q.
		if res.Stats.Flops != res.Plan.Cost.TotalFlops() {
			t.Fatalf("p=%d: measured flops %d != predicted %d", procs, res.Stats.Flops, res.Plan.Cost.TotalFlops())
		}
		io := oneDLoading(1024, 64, res.Plan.Procs)
		if res.Stats.Msgs != res.Plan.Cost.Msgs+io.Msgs {
			t.Fatalf("p=%d: measured msgs %d != predicted %d + scatter and gather %d",
				procs, res.Stats.Msgs, res.Plan.Cost.Msgs, io.Msgs)
		}
		if res.Stats.Words != res.Plan.Cost.Words+io.Words {
			t.Fatalf("p=%d: measured words %d != predicted %d + scatter and gather %d",
				procs, res.Stats.Words, res.Plan.Cost.Words, io.Words)
		}
	}
}

// oneDLoading is what a run on the 1 × P × 1 grid moves besides the
// algorithm: rank 0 scatters m/P cyclic rows of A to each other rank,
// (P−1)·α + (P−1)·(m/P)·n·β, and Q is gathered back, log₂P·α + m·n·β
// (R is whole on every rank).
func oneDLoading(m, n, procs int) costmodel.Cost {
	scatter := costmodel.Cost{Msgs: int64(procs - 1), Words: int64(procs-1) * int64(m/procs) * int64(n)}
	return scatter.Add(costmodel.Allgather(int64(m)*int64(n), procs))
}

// TestAutoFactorizeDispatchesGridVariant forces the planner into the
// c × d × c family: a bandwidth-starved machine makes replication
// attractive and a per-rank memory budget rules out the comm-free
// sequential and 1D plans (whose footprint is the whole matrix or a
// full row block).
func TestAutoFactorizeDispatchesGridVariant(t *testing.T) {
	bw := Machine{Name: "bw-bound", AlphaSec: 1e-9, InjBandwidth: 1e6,
		PeakNodeFlops: 1e13, PPN: 1, Duplex: 1, GemmEff: 1, UpdateEff: 1, PanelEff: 1}
	a := RandomMatrix(128, 64, 7)
	res, err := AutoFactorize(a, 64, Options{PlanMachine: &bw, MemBudget: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantCACQR2 && res.Plan.Variant != VariantPanelCACQR2 {
		t.Fatalf("budgeted bandwidth-bound plan is %v, want a grid-family variant", res.Plan)
	}
	if res.Plan.C < 2 {
		t.Fatalf("grid plan has c=%d", res.Plan.C)
	}
	if res.Plan.MemBytes() > 30000 {
		t.Fatalf("plan footprint %d over budget", res.Plan.MemBytes())
	}
	if e := OrthogonalityError(res.Q); e > 1e-10 {
		t.Fatalf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-10 {
		t.Fatalf("residual %g", e)
	}
	if res.Stats.Flops != res.Plan.Cost.TotalFlops() {
		t.Fatalf("measured flops %d != predicted %d", res.Stats.Flops, res.Plan.Cost.TotalFlops())
	}
	if res.Stats.Msgs < res.Plan.Cost.Msgs || res.Stats.Words < res.Plan.Cost.Words {
		t.Fatalf("measured comm (%d, %d) below prediction (%d, %d)",
			res.Stats.Msgs, res.Stats.Words, res.Plan.Cost.Msgs, res.Plan.Cost.Words)
	}
}

func TestAutoFactorizeSequentialOnOneRank(t *testing.T) {
	a := RandomMatrix(96, 12, 3)
	res, err := AutoFactorize(a, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantCACQR2 || res.Plan.Procs != 1 {
		t.Fatalf("p=1 plan: %v", res.Plan)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-12 {
		t.Fatalf("residual %g", e)
	}
	if res.Stats.Flops != res.Plan.Cost.TotalFlops() {
		t.Fatalf("measured flops %d != predicted %d", res.Stats.Flops, res.Plan.Cost.TotalFlops())
	}
	if res.Stats.Words != 0 || res.Stats.Msgs != 0 {
		t.Fatalf("sequential run communicated: %+v", res.Stats)
	}
}

// TestFactorize1D runs CA-CQR2 on the 1D grid of eight ranks.
func TestFactorize1D(t *testing.T) {
	a := RandomMatrix(256, 16, 11)
	res, err := FactorizePlan(a, Plan{Variant: VariantCACQR2, C: 1, D: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(res.Q); e > 1e-12 {
		t.Fatalf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-12 {
		t.Fatalf("residual %g", e)
	}
	// R agrees with the sequential reference (unique for positive diag).
	_, r, err := CholeskyQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Data {
		if math.Abs(r.Data[i]-res.R.Data[i]) > 1e-9 {
			t.Fatalf("R element %d differs: %g vs %g", i, r.Data[i], res.R.Data[i])
		}
	}
	// The Workers knob may change wall-clock only: factors and measured
	// costs must be bitwise identical.
	res4, err := FactorizePlan(a, Plan{Variant: VariantCACQR2, C: 1, D: 8}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Q.Data {
		if res.Q.Data[i] != res4.Q.Data[i] {
			t.Fatalf("Workers=4: Q differs at %d", i)
		}
	}
	if res.Stats != res4.Stats {
		t.Fatalf("Workers=4 changed measured costs: %+v vs %+v", res.Stats, res4.Stats)
	}
	// Error paths.
	if _, err := FactorizePlan(a, Plan{Variant: VariantCACQR2, C: 1, D: 7}, Options{}); err == nil {
		t.Fatal("indivisible m accepted")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantCACQR2, Procs: 8}, Options{}); err == nil {
		t.Fatal("a plan without a grid accepted")
	}
}

func TestFactorizePlanExecutesChosenCandidate(t *testing.T) {
	a := RandomMatrix(256, 16, 5)
	plans, err := PlanGrid(256, 16, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Execute the runner-up, not the winner: FactorizePlan must honor
	// the caller's choice.
	pick := plans[1]
	res, err := FactorizePlan(a, pick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Variant != pick.Variant || res.Plan.Procs != pick.Procs {
		t.Fatalf("executed %+v, picked %+v", res.Plan, pick)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-10 {
		t.Fatalf("residual %g", e)
	}
	// A malformed hand-built plan (PGEQRF with a zero grid) is rejected
	// with an error, not a panic.
	if _, err := FactorizePlan(a, Plan{Variant: VariantPGEQRF}, Options{}); err == nil {
		t.Fatal("zero-grid PGEQRF plan executed")
	}
	if _, err := FactorizePlan(a, Plan{Variant: Variant("nonsense")}, Options{}); err == nil {
		t.Fatal("unknown variant executed")
	}
}

func TestIncludeBaselinesSurfacesPGEQRFRow(t *testing.T) {
	plans, err := PlanGrid(4096, 256, 64, Options{IncludeBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range plans {
		if p.Variant == VariantPGEQRF {
			found = true
		}
	}
	if !found {
		t.Fatal("IncludeBaselines did not surface a PGEQRF reference row")
	}
}

func TestPartialPlanMachineRejected(t *testing.T) {
	// A custom machine missing the fields Machine.Time divides by must
	// be an error, not a silent fallback to Stampede2.
	partial := Machine{Name: "partial", AlphaSec: 1e-6, InjBandwidth: 1e9}
	if _, err := PlanGrid(1024, 64, 16, Options{PlanMachine: &partial}); err == nil {
		t.Fatal("partially-specified PlanMachine accepted")
	}
	if _, err := AutoFactorize(RandomMatrix(64, 8, 1), 4, Options{PlanMachine: &partial}); err == nil {
		t.Fatal("partially-specified PlanMachine accepted by AutoFactorize")
	}
}

func TestPlanGridRankedAndBudgeted(t *testing.T) {
	plans, err := PlanGrid(4096, 256, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Seconds < plans[i-1].Seconds {
			t.Fatalf("plans not ranked at %d", i)
		}
	}
	budget := plans[0].MemBytes() - 1
	rest, err := PlanGrid(4096, 256, 64, Options{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rest {
		if p.MemBytes() > budget {
			t.Fatalf("plan %v over budget %d", p, budget)
		}
	}
}

func TestNegativeWorkersRejectedEverywhere(t *testing.T) {
	a := RandomMatrix(32, 4, 1)
	bad := Options{Workers: -1}
	if _, err := FactorizeOnGrid(a, GridSpec{C: 1, D: 4}, bad); err == nil {
		t.Fatal("FactorizeOnGrid accepted negative Workers")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: 4}, bad); err == nil {
		t.Fatal("FactorizePlan(tsqr) accepted negative Workers")
	}
	if _, err := FactorizePlan(a, Plan{Variant: VariantShiftedCQR3, C: 1, D: 4}, bad); err == nil {
		t.Fatal("FactorizePlan(shifted-cqr3) accepted negative Workers")
	}
	if _, err := AutoFactorize(a, 4, bad); err == nil {
		t.Fatal("AutoFactorize accepted negative Workers")
	}
	if _, err := PlanGrid(32, 4, 4, bad); err == nil {
		t.Fatal("PlanGrid accepted negative Workers")
	}
}

// A row records the knobs it was priced with and FactorizePlan runs
// them: every grid row priced at InverseDepth 1 measures its own flop
// count whatever the caller's Options say, and that count is not the
// InverseDepth 0 one (the 2×2×2 row: 149 944 against 150 072).
func TestFactorizePlanRunsTheRowsOwnKnobs(t *testing.T) {
	const m, n, procs = 256, 32, 8
	a := RandomMatrix(m, n, 9)
	priced := func(inv int) map[string]Plan {
		rows, err := PlanGrid(m, n, procs, Options{InverseDepth: inv})
		if err != nil {
			t.Fatal(err)
		}
		grid := map[string]Plan{}
		for _, p := range rows {
			if p.Variant == VariantCACQR2 || p.Variant == VariantPanelCACQR2 {
				if p.InverseDepth != inv {
					t.Fatalf("%v: row carries InverseDepth %d, priced with %d", p, p.InverseDepth, inv)
				}
				grid[fmt.Sprintf("%s %s b=%d", p.Variant, p.GridString(), p.PanelWidth)] = p
			}
		}
		return grid
	}
	deep, full := priced(1), priced(0)
	if len(deep) < 2 || len(deep) != len(full) {
		t.Fatalf("%d grid rows at InverseDepth 1, %d at 0", len(deep), len(full))
	}
	moved := 0
	for name, row := range deep {
		if row.Cost.Flops != full[name].Cost.Flops {
			moved++
		}
		for _, opts := range []Options{{}, {InverseDepth: 3, BaseSize: 16}} {
			res, err := FactorizePlan(a, row, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.Flops != row.Cost.Flops {
				t.Errorf("%s with Options%+v: measured %d flops, the row was priced at %d", name, opts, res.Stats.Flops, row.Cost.Flops)
			}
			if res.Stats.Msgs < row.Cost.Msgs || res.Stats.Words < row.Cost.Words {
				t.Errorf("%s: measured comm (%d, %d) below the row's (%d, %d)", name, res.Stats.Msgs, res.Stats.Words, row.Cost.Msgs, row.Cost.Words)
			}
		}
	}
	if moved == 0 {
		t.Fatal("InverseDepth moved no row's flop count: the test distinguishes nothing")
	}
}
