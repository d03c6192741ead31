package plan

import (
	"fmt"
	"math"
	"sort"

	"cacqr/internal/costmodel"
)

// Enumerate prices every feasible plan for the request and returns them
// ranked by predicted time (ascending; ties keep the canonical
// enumeration order: by grid (c, d) from the one-rank 1×1×1, CA-CQR2,
// then ShiftedCQR3, then from c = 2 the panel variant by b; then TSQR
// by rank count, blocked TSQR by (p, b)). Plans whose modeled per-rank
// footprint exceeds the memory budget, or whose predicted orthogonality
// loss at Request.CondEst exceeds DefaultOrthTol, are rejected. An
// empty request, a NaN/negative CondEst, or a request with no feasible
// plan is an error.
func Enumerate(req Request) ([]Plan, error) {
	if req.M < 1 || req.N < 1 {
		return nil, fmt.Errorf("plan: invalid shape %dx%d", req.M, req.N)
	}
	if req.M < req.N {
		return nil, fmt.Errorf("plan: CholeskyQR requires m ≥ n, got %dx%d", req.M, req.N)
	}
	if req.Procs < 1 {
		return nil, fmt.Errorf("plan: invalid processor budget %d", req.Procs)
	}
	if math.IsNaN(req.CondEst) || req.CondEst < 0 {
		return nil, fmt.Errorf("plan: invalid condition estimate %g (want ≥ 0; 0 = unknown)", req.CondEst)
	}
	mach, err := resolveMachine(req.Machine)
	if err != nil {
		return nil, err
	}

	var plans []Plan
	rejectedByCond := false
	// try is Price with the request's knobs, machine and κ, the verdict
	// left unformatted; keep gates a priced candidate on the budget and
	// the predicted loss.
	try := func(p Plan) (Plan, violation) {
		p.InverseDepth, p.BaseSize = req.InverseDepth, req.BaseSize
		v := p.fit(req.M, req.N)
		if v.ok() && p.price(req.M, req.N, mach, req.CondEst) != nil {
			v = bad("the cost model rejects a plan Check admits")
		}
		return p, v
	}
	keep := func(p Plan) {
		if req.MemBudget > 0 && p.MemBytes() > req.MemBudget {
			return
		}
		if req.CondEst > 1 && p.PredOrth > DefaultOrthTol {
			rejectedByCond = true
			return
		}
		p.Rationale = rationale(p, req)
		plans = append(plans, p)
	}
	add := func(p Plan) violation {
		p, v := try(p)
		if v.ok() {
			keep(p)
		}
		return v
	}

	inCore(req, add)
	if req.IncludeBaselines {
		if p, ok := pgeqrfReference(req, try); ok {
			keep(p)
		}
	}
	// Out-of-core fallback: when a finite memory budget rejected every
	// in-core variant, the streamed CholeskyQR2 rows — whose footprint is
	// two panels' worth plus O(n²), not the whole matrix — are
	// enumerated. They never compete with in-core rows (the extra passes
	// over the data on the disk tier always lose), so the routing is
	// driven purely by MemBudget.
	if len(plans) == 0 && req.MemBudget > 0 {
		streamCandidates(req, add)
	}
	if len(plans) == 0 {
		if rejectedByCond {
			return nil, fmt.Errorf("plan: no variant meets ‖QᵀQ−I‖ ≤ %g at κ≈%g for %dx%d on ≤%d ranks",
				DefaultOrthTol, req.CondEst, req.M, req.N, req.Procs)
		}
		return nil, fmt.Errorf("plan: no feasible plan for %dx%d on ≤%d ranks (budget %d bytes)",
			req.M, req.N, req.Procs, req.MemBudget)
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Seconds < plans[j].Seconds })
	return plans, nil
}

// Best returns the top-ranked executable plan. Baseline reference rows
// are never considered.
func Best(req Request) (Plan, error) {
	req.IncludeBaselines = false
	plans, err := Enumerate(req)
	if err != nil {
		return Plan{}, err
	}
	return plans[0], nil
}

// resolveMachine selects Stampede2, the paper's primary platform, for
// the zero value and rejects a partially-specified machine instead of
// silently falling back to a default: every field Machine.Time divides
// by must be positive, and latency must not be negative.
func resolveMachine(m costmodel.Machine) (costmodel.Machine, error) {
	if m == (costmodel.Machine{}) {
		return costmodel.Stampede2, nil
	}
	if m.AlphaSec < 0 || m.InjBandwidth <= 0 || m.PeakNodeFlops <= 0 || m.PPN <= 0 ||
		m.Duplex <= 0 || m.GemmEff <= 0 || m.UpdateEff <= 0 || m.PanelEff <= 0 {
		return m, fmt.Errorf("plan: machine %q is incompletely specified (need positive bandwidth, peak, PPN, duplex, and efficiency factors)", m.Name)
	}
	return m, nil
}

// The candidate generators below are policy, not rule: each names the
// bare extents of the plans worth considering, in the canonical order,
// and add prices them — Check decides which of them fit the matrix, so
// no generator tests divisibility. add's verdict lets a generator drop a
// subtree: a final violation (one not about the width alone) rules out
// every other width on the same variant and grid.

// inCore enumerates the in-core families. The c × d × c grids run over
// c·d·c ≤ Procs from c = 1, the 1D grids (d = 1 is the sequential
// case): more ranks cut the dominant 4mn²/P flop term but pay latency in
// the Gram reductions, and replication (c > 1) cuts words at c× the
// memory, so the optimum can be interior. Each grid carries a CA-CQR2
// row and a ShiftedCQR3 row. ShiftedCQR3 costs ~1.5× as much and never
// outranks the plain row on well-behaved inputs; its reason to exist is
// the condition gate — when CondEst puts κ(A) beyond the CQR2 family's
// ε^{-1/2} regime, these rows (and the Householder baselines) are all
// that survive. From c = 2 each grid is followed by its §V panel
// variant at every width b < n. TSQR runs over power-of-two rank
// counts, and its blocked (BGS2) variant exactly where the plain tree is
// infeasible (m/p < n) — its reason to exist is lifting that restriction
// to m/p ≥ b.
func inCore(req Request, add func(Plan) violation) {
	for c := 1; c*c*c <= req.Procs; c++ {
		for d := c; c*d*c <= req.Procs; d += c {
			if add(Plan{Variant: CACQR2, C: c, D: d}).final() {
				continue
			}
			add(Plan{Variant: ShiftedCQR3, C: c, D: d})
			for b := c; c > 1 && b < req.N; b += c {
				add(Plan{Variant: PanelCACQR2, C: c, D: d, PanelWidth: b})
			}
		}
	}
	for p := 2; p <= req.Procs; p *= 2 {
		add(Plan{Variant: TSQR, C: 1, D: p, Procs: p})
	}
	for p := 2; p <= req.Procs; p *= 2 {
		if req.M/p >= req.N {
			continue
		}
		for b := 1; b < req.N; b++ {
			if add(Plan{Variant: TSQR, C: 1, D: p, Procs: p, PanelWidth: b}).final() {
				break
			}
		}
	}
}

// streamCandidates enumerates the out-of-core streamed CholeskyQR2 on
// one rank over doubling panel heights b = n, 2n, 4n, … ≤ m, priced
// with the Q pass and — when the condition estimate is beyond plain
// CholeskyQR2 — on the shifted ladder the driver will take. Flops and
// bytes do not depend on b; taller panels mean fewer I/O operations on
// the δ-tier, so among the rows that fit the budget the tallest ranks
// cheapest and the memory gate picks the workable ones.
func streamCandidates(req Request, add func(Plan) violation) {
	for b := req.N; b <= req.M; b *= 2 {
		add(Plan{Variant: StreamCQR2, C: 1, D: 1, PanelWidth: b})
	}
}

// pgeqrfReference prices the ScaLAPACK-style baseline and returns only
// the cheapest configuration found as a reference row (executable via
// FactorizePlan, never preferred by Best): pr over 1..Procs, pc over
// powers of two with pr·pc ≤ Procs, and nb up to 64.
func pgeqrfReference(req Request, try func(Plan) (Plan, violation)) (best Plan, found bool) {
	for pr := 1; pr <= req.Procs; pr++ {
	grid:
		for pc := 1; pr*pc <= req.Procs; pc *= 2 {
			for nb := 1; nb <= 64 && nb <= req.N; nb++ {
				p, v := try(Plan{Variant: PGEQRF, C: pc, D: pr, PanelWidth: nb})
				switch {
				case v.ok() && (!found || p.Seconds < best.Seconds):
					best, found = p, true
				case v.final():
					break grid
				}
			}
		}
	}
	return best, found
}

// rationale is the one-line justification a kept row carries.
func rationale(p Plan, req Request) string {
	switch p.Variant {
	case ShiftedCQR3:
		return fmt.Sprintf("shifted CholeskyQR3 on %s: stable far beyond CQR2's κ≈1e7 ceiling at ~1.5× the flops", p.GridString())
	case CACQR2:
		switch {
		case p.Procs == 1:
			return "single rank: no communication, CholeskyQR2's ~4mn² flops"
		case p.C == 1:
			return fmt.Sprintf("c=1 tall-skinny regime: n²-word Gram Allreduce over %d ranks, no replication", p.Procs)
		}
		return fmt.Sprintf("c=%d replicates the Gram work to cut words/rank ~√c at %d× memory, d=%d row blocks", p.C, p.C, p.D)
	case PanelCACQR2:
		return fmt.Sprintf("width-%d panels cut the flop overhead toward Householder's 2mn² at %d extra synchronizations", p.PanelWidth, req.N/p.PanelWidth-1)
	case TSQR:
		if p.PanelWidth > 0 {
			return fmt.Sprintf("blocked TSQR over %d ranks: width-%d panels lift the m/p ≥ n restriction (BGS2 cross-panel loss O(ε·κ))", p.Procs, p.PanelWidth)
		}
		return fmt.Sprintf("binary-tree Householder over %d ranks: unconditionally stable, log p small QRs on the critical path", p.Procs)
	case PGEQRF:
		return fmt.Sprintf("ScaLAPACK-style reference on a %d×%d grid, nb=%d", p.D, p.C, p.PanelWidth)
	default: // StreamCQR2
		reads := 3
		if CQR2Breaks(req.CondEst) {
			reads = 4
		}
		return fmt.Sprintf("out-of-core: no in-core variant fits the budget; accumulate the Gram matrix over %d-row panels (%d reads + 1 write), resident ≈ 2 panels + O(n²)", p.PanelWidth, reads)
	}
}
