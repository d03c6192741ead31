package plan

import (
	"strings"
	"testing"

	"cacqr/internal/costmodel"
)

// The out-of-core routing contract: with an unlimited (or adequate)
// budget the planner never proposes streaming; once the budget rejects
// every in-core variant it must fall back to stream-cqr2 rows; and a
// budget too small even for three n-row panels plus the n×n factors is
// still an error. The choice is driven purely by MemBudget.
func TestStreamFallbackRouting(t *testing.T) {
	const m, n = 1 << 15, 64
	seqMem, err := costmodel.CACQR2Memory(m, n, costmodel.CACQRParams{C: 1, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The stream footprint 2bn + 8n² has no term in m or the panel
	// count, so its floor is the shortest panel, b = n.
	minStream, err := costmodel.StreamCQR2Memory(m, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if w4, _ := costmodel.StreamCQR2Memory(4*m, n, n); w4 != minStream {
		t.Errorf("stream footprint depends on m: %d at m, %d at 4m", minStream, w4)
	}
	if 8*minStream >= 8*seqMem {
		t.Fatalf("test shape broken: smallest stream footprint %d ≥ in-core %d", minStream, seqMem)
	}

	// Unlimited budget: in-core wins, no streaming row anywhere.
	plans, err := Enumerate(Request{M: m, N: n, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Variant == StreamCQR2 {
			t.Errorf("stream row enumerated with no memory pressure: %v", p)
		}
	}

	// Adequate finite budget: same story.
	plans, err = Enumerate(Request{M: m, N: n, Procs: 1, MemBudget: 8 * seqMem})
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].Variant == StreamCQR2 {
		t.Errorf("stream row preferred despite in-core fitting: %v", plans[0])
	}

	// Budget between the stream floor and the in-core floor: streaming
	// is the only road, and every surviving row must honor the budget.
	budget := 8 * seqMem / 2
	if budget <= 8*minStream {
		t.Fatalf("test shape broken: fallback budget %d below stream floor %d", budget, 8*minStream)
	}
	best, err := Best(Request{M: m, N: n, Procs: 1, MemBudget: budget})
	if err != nil {
		t.Fatalf("no fallback plan under budget %d: %v", budget, err)
	}
	if best.Variant != StreamCQR2 {
		t.Fatalf("best under pressure = %v, want stream-cqr2", best)
	}
	if best.MemBytes() > budget {
		t.Errorf("stream plan footprint %d exceeds budget %d", best.MemBytes(), budget)
	}
	if best.PanelWidth < n {
		t.Errorf("stream plan panel rows %d < n=%d", best.PanelWidth, n)
	}
	if !strings.Contains(best.Rationale, "out-of-core") {
		t.Errorf("rationale does not explain the fallback: %q", best.Rationale)
	}
	if best.Cost.IOBytes == 0 || best.Cost.IOOps == 0 {
		t.Errorf("stream plan carries no I/O cost: %+v", best.Cost)
	}
	// Rows are priced with the Q pass on the plain ladder: exactly the
	// model a well-conditioned run's counters equal.
	if want, _ := costmodel.StreamCQR2(m, n, best.PanelWidth, true, false); best.Cost != want {
		t.Errorf("stream plan cost %+v, want the StreamCQR2 row %+v", best.Cost, want)
	}

	// Under pressure every surviving row is a budget-honoring stream row,
	// ranked by the δ-tier alone: flops and bytes are the same for every
	// panel height, so fewer, taller panels (fewer I/O operations) win.
	plans, err = Enumerate(Request{M: m, N: n, Procs: 1, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p.Variant != StreamCQR2 {
			t.Fatalf("non-stream row %v survived an over-budget in-core enumeration", p)
		}
		if p.MemBytes() > budget {
			t.Errorf("stream row %v exceeds budget %d", p, budget)
		}
		if p.Cost.Flops != best.Cost.Flops || p.Cost.IOBytes != best.Cost.IOBytes {
			t.Errorf("stream row %v: flops/bytes vary with the panel height", p)
		}
		if i > 0 && p.PanelWidth >= plans[i-1].PanelWidth {
			t.Errorf("stream rows not ranked tallest-first: %d after %d", p.PanelWidth, plans[i-1].PanelWidth)
		}
	}

	// Starvation: below even one panel's footprint there is no plan.
	if _, err := Enumerate(Request{M: m, N: n, Procs: 1, MemBudget: 64}); err == nil {
		t.Error("expected error for budget below the streaming floor")
	}
}

// The streamed driver runs the shifted ladder beyond the CholeskyQR2
// regime, so the stream rows must survive condition estimates that kill
// the plain CholeskyQR2 family — the daemon's route for huge
// ill-conditioned gen requests is planned, not rejected — and must be
// priced as what will run: one more read pass and the shifted flops.
func TestStreamSurvivesCondGate(t *testing.T) {
	const m, n = 1 << 15, 64
	seqMem, err := costmodel.CACQR2Memory(m, n, costmodel.CACQRParams{C: 1, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	best, err := Best(Request{M: m, N: n, Procs: 1, MemBudget: 8 * seqMem / 2, CondEst: 1e9})
	if err != nil {
		t.Fatalf("κ=1e9 under memory pressure: %v", err)
	}
	if best.Variant != StreamCQR2 {
		t.Fatalf("best = %v, want stream-cqr2", best)
	}
	if best.PredOrth > DefaultOrthTol {
		t.Errorf("predicted orthogonality %g exceeds tolerance", best.PredOrth)
	}
	if want, _ := costmodel.StreamCQR2(m, n, best.PanelWidth, true, true); best.Cost != want {
		t.Errorf("κ=1e9 stream plan cost %+v, want the shifted StreamCQR2 row %+v", best.Cost, want)
	}
}

// The stream cost rows price their I/O on the disk tier: a machine with
// a slower disk must predict a longer streaming time for the same cost.
func TestStreamCostUsesDiskTier(t *testing.T) {
	cost, err := costmodel.StreamCQR2(1<<15, 64, 1024, true, false)
	if err != nil {
		t.Fatal(err)
	}
	fast := costmodel.Stampede2
	slow := fast
	slow.DiskBandwidth = fast.DiskBandwidth / 10
	slow.DeltaSec = fast.DeltaSec * 10
	if slow.Time(cost) <= fast.Time(cost) {
		t.Errorf("10× slower disk not reflected: %g ≤ %g", slow.Time(cost), fast.Time(cost))
	}
	none := fast
	none.DeltaSec, none.DiskBandwidth = 0, 0
	if none.Time(cost) >= fast.Time(cost) {
		t.Errorf("machine without a disk tier should price I/O as free")
	}
}
