package plan

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"strings"
	"testing"

	"cacqr/internal/costmodel"
)

// bruteForce minimizes the validated cost model directly, scanning the
// same candidate space as Enumerate but through its own loops over the
// costmodel API, keeping the first strict minimum in canonical order.
// It is the test's independent referee for the Best property.
func bruteForce(t *testing.T, req Request) (Plan, bool) {
	t.Helper()
	mach := req.Machine
	if mach.PeakNodeFlops == 0 {
		mach = costmodel.Stampede2
	}
	var best Plan
	found := false
	consider := func(p Plan, mem int64, err error) {
		if err != nil {
			return
		}
		p.MemWords = mem
		if req.MemBudget > 0 && 8*mem > req.MemBudget {
			return
		}
		p.Seconds = mach.Time(p.Cost)
		if !found || p.Seconds < best.Seconds {
			best, found = p, true
		}
	}

	// CA-CQR2 and the shifted CholeskyQR3 on every grid from the one
	// rank up (c = 1 is the 1D grid), and from c = 2 the panel widths.
	for c := 1; c*c*c <= req.Procs; c++ {
		if req.N%c != 0 {
			continue
		}
		for d := c; c*d*c <= req.Procs; d += c {
			if req.M%d != 0 {
				continue
			}
			prm := costmodel.CACQRParams{C: c, D: d, BaseSize: req.BaseSize, InverseDepth: req.InverseDepth}
			mem, merr := costmodel.CACQR2Memory(req.M, req.N, prm)
			if cc, err := costmodel.CACQR2(req.M, req.N, prm); err == nil {
				consider(Plan{Variant: CACQR2, C: c, D: d, Procs: c * d * c, Cost: cc}, mem, merr)
			}
			if sc, err := costmodel.ShiftedCACQR3(req.M, req.N, prm); err == nil {
				consider(Plan{Variant: ShiftedCQR3, C: c, D: d, Procs: c * d * c, Cost: sc}, mem, merr)
			}
			for b := c; c > 1 && b < req.N; b += c {
				if req.N%b != 0 {
					continue
				}
				pc, err := costmodel.PanelCACQR2(req.M, req.N, b, prm)
				if err != nil {
					continue
				}
				mem, merr := costmodel.PanelCACQR2Memory(req.M, req.N, b, prm)
				consider(Plan{Variant: PanelCACQR2, C: c, D: d, PanelWidth: b, Procs: c * d * c, Cost: pc}, mem, merr)
			}
		}
	}
	// TSQR.
	for p := 2; p <= req.Procs; p *= 2 {
		if req.M%p != 0 || req.M/p < req.N {
			continue
		}
		c, err := costmodel.TSQR(req.M, req.N, p)
		if err != nil {
			continue
		}
		mem, merr := costmodel.TSQRMemory(req.M, req.N, p)
		consider(Plan{Variant: TSQR, C: 1, D: p, Procs: p, Cost: c}, mem, merr)
	}
	// Blocked TSQR, exactly where the plain tree is infeasible.
	for p := 2; p <= req.Procs; p *= 2 {
		if req.M%p != 0 || req.M/p >= req.N {
			continue
		}
		for b := 1; b < req.N && b <= req.M/p; b++ {
			if req.N%b != 0 {
				continue
			}
			c, err := costmodel.BlockedTSQR(req.M, req.N, b, p)
			if err != nil {
				continue
			}
			mem, merr := costmodel.BlockedTSQRMemory(req.M, req.N, b, p)
			consider(Plan{Variant: TSQR, C: 1, D: p, PanelWidth: b, Procs: p, Cost: c}, mem, merr)
		}
	}
	return best, found
}

// sweep covers the paper's regimes: very tall (1D territory), tall,
// moderately rectangular, and near-square, over 1D-friendly and
// cube-friendly processor counts, including a non-power-of-two.
var sweep = []struct {
	m, n, procs int
}{
	{1 << 16, 32, 64},
	{1 << 16, 32, 8},
	{1 << 14, 256, 64},
	{1 << 14, 256, 16},
	{4096, 1024, 64},
	{4096, 1024, 128},
	{2048, 2048, 8},
	{2048, 2048, 64},
	{1 << 15, 64, 27},
	{1 << 13, 512, 250},
	{960, 96, 54},
	{1 << 20, 64, 512},
}

func TestBestMatchesBruteForce(t *testing.T) {
	for _, tc := range sweep {
		req := Request{M: tc.m, N: tc.n, Procs: tc.procs}
		want, ok := bruteForce(t, req)
		if !ok {
			t.Fatalf("%dx%d p=%d: brute force found nothing", tc.m, tc.n, tc.procs)
		}
		got, err := Best(req)
		if err != nil {
			t.Fatalf("%dx%d p=%d: %v", tc.m, tc.n, tc.procs, err)
		}
		if got.Variant != want.Variant || got.C != want.C || got.D != want.D ||
			got.PanelWidth != want.PanelWidth || got.Procs != want.Procs {
			t.Fatalf("%dx%d p=%d: Best = %v, brute force = %v", tc.m, tc.n, tc.procs, got, want)
		}
		if got.Seconds != want.Seconds {
			t.Fatalf("%dx%d p=%d: Best seconds %g != brute force %g", tc.m, tc.n, tc.procs, got.Seconds, want.Seconds)
		}
	}
}

func TestBestMatchesBruteForceOnBlueWaters(t *testing.T) {
	// Machine constants shift the α-β-γ tradeoff; the property must hold
	// for both paper platforms.
	for _, tc := range sweep[:6] {
		req := Request{M: tc.m, N: tc.n, Procs: tc.procs, Machine: costmodel.BlueWaters}
		want, ok := bruteForce(t, req)
		if !ok {
			t.Fatalf("%dx%d p=%d: brute force found nothing", tc.m, tc.n, tc.procs)
		}
		got, err := Best(req)
		if err != nil {
			t.Fatalf("%dx%d p=%d: %v", tc.m, tc.n, tc.procs, err)
		}
		if got.Variant != want.Variant || got.C != want.C || got.D != want.D || got.PanelWidth != want.PanelWidth {
			t.Fatalf("%dx%d p=%d: Best = %v, brute force = %v", tc.m, tc.n, tc.procs, got, want)
		}
	}
}

func TestMemoryBudgetNeverExceeded(t *testing.T) {
	for _, tc := range sweep {
		req := Request{M: tc.m, N: tc.n, Procs: tc.procs}
		plans, err := Enumerate(req)
		if err != nil {
			t.Fatal(err)
		}
		// Budget squeezed to the median plan's footprint: every returned
		// plan must fit, and Best under the budget must again equal the
		// budget-aware brute force.
		budget := plans[len(plans)/2].MemBytes()
		req.MemBudget = budget
		got, err := Enumerate(req)
		if err != nil {
			t.Fatalf("%dx%d p=%d budget %d: %v", tc.m, tc.n, tc.procs, budget, err)
		}
		for _, p := range got {
			if p.MemBytes() > budget {
				t.Fatalf("%dx%d p=%d: plan %v exceeds budget %d", tc.m, tc.n, tc.procs, p, budget)
			}
		}
		want, ok := bruteForce(t, req)
		if !ok {
			t.Fatalf("budgeted brute force found nothing")
		}
		best, err := Best(req)
		if err != nil {
			t.Fatal(err)
		}
		if best.Variant != want.Variant || best.C != want.C || best.D != want.D || best.PanelWidth != want.PanelWidth {
			t.Fatalf("%dx%d p=%d budget %d: Best = %v, brute force = %v", tc.m, tc.n, tc.procs, budget, best, want)
		}
	}
}

func TestRankingIsSorted(t *testing.T) {
	plans, err := Enumerate(Request{M: 4096, N: 256, Procs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("only %d plans for a shape with many feasible grids", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Seconds < plans[i-1].Seconds {
			t.Fatalf("ranking not sorted at %d: %g after %g", i, plans[i].Seconds, plans[i-1].Seconds)
		}
	}
}

func TestVeryTallPrefersOneDRegime(t *testing.T) {
	// The paper's 1D regime: m ≫ n on a modest machine-sized p. The
	// planner must pick a c = 1 family member, not a replicated grid.
	best, err := Best(Request{M: 1 << 20, N: 16, Procs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if best.C != 1 {
		t.Fatalf("very tall matrix chose c=%d (%v)", best.C, best)
	}
}

func TestNearSquareRaisesC(t *testing.T) {
	// §IV: as the matrix approaches square, the best c moves from 1
	// toward d. Compare the best grid-family c across aspect ratios at
	// fixed p; the near-square shape must use strictly more replication.
	tall, err := Best(Request{M: 1 << 20, N: 16, Procs: 4096})
	if err != nil {
		t.Fatal(err)
	}
	square, err := Best(Request{M: 1 << 13, N: 1 << 12, Procs: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if square.C <= tall.C {
		t.Fatalf("near-square c=%d not above tall c=%d (%v vs %v)", square.C, tall.C, square, tall)
	}
}

func TestPGEQRFReferenceRow(t *testing.T) {
	req := Request{M: 4096, N: 256, Procs: 64, IncludeBaselines: true}
	plans, err := Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Plan
	for i := range plans {
		if plans[i].Variant == PGEQRF {
			ref = &plans[i]
		}
	}
	if ref == nil {
		t.Fatal("no PGEQRF reference row with IncludeBaselines")
	}
	best, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	if best.Variant == PGEQRF {
		t.Fatal("Best returned the baseline reference")
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate(Request{M: 8, N: 16, Procs: 4}); err == nil {
		t.Fatal("m < n accepted")
	}
	if _, err := Enumerate(Request{M: 0, N: 0, Procs: 4}); err == nil {
		t.Fatal("empty shape accepted")
	}
	if _, err := Enumerate(Request{M: 64, N: 8, Procs: 0}); err == nil {
		t.Fatal("zero procs accepted")
	}
	// A budget below even the sequential footprint leaves nothing.
	if _, err := Enumerate(Request{M: 64, N: 8, Procs: 4, MemBudget: 8}); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestPlanStringsAreInformative(t *testing.T) {
	best, err := Best(Request{M: 4096, N: 256, Procs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if best.Rationale == "" {
		t.Fatal("empty rationale")
	}
	s := best.String()
	if !strings.Contains(s, string(best.Variant)) || !strings.Contains(s, "α=") {
		t.Fatalf("String() missing variant or cost: %q", s)
	}
}
