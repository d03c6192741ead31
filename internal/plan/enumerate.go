package plan

import (
	"fmt"
	"math"
	"sort"

	"cacqr/internal/costmodel"
)

// Enumerate prices every feasible plan for the request and returns them
// ranked by predicted time (ascending; ties keep the canonical
// enumeration order: Sequential, 1D-CQR2 by rank count, ShiftedCQR3 by
// rank count, CA-CQR2 by (c, d), the panel variant by (c, d, b), TSQR
// by rank count, blocked TSQR by (p, b)). Plans whose modeled per-rank
// footprint exceeds the memory budget, or whose predicted orthogonality
// loss at Request.CondEst exceeds Request.OrthTol, are rejected. An
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
	mach := req.Machine
	if mach == (costmodel.Machine{}) {
		mach = costmodel.Stampede2
	} else if err := checkMachine(mach); err != nil {
		return nil, err
	}
	orthTol := req.OrthTol
	if orthTol <= 0 {
		orthTol = DefaultOrthTol
	}

	var plans []Plan
	rejectedByCond := false
	add := func(p Plan) {
		if req.MemBudget > 0 && p.MemBytes() > req.MemBudget {
			return
		}
		p.PredOrth = PredictOrthogonality(p.Variant, req.M, req.N, p.PanelWidth, req.CondEst)
		if req.CondEst > 1 && p.PredOrth > orthTol {
			rejectedByCond = true
			return
		}
		p.Seconds = mach.Time(p.Cost)
		plans = append(plans, p)
	}

	for _, p := range sequentialCandidates(req) {
		add(p)
	}
	for _, p := range oneDCandidates(req) {
		add(p)
	}
	for _, p := range shiftedCandidates(req) {
		add(p)
	}
	for _, p := range gridCandidates(req) {
		add(p)
	}
	for _, p := range tsqrCandidates(req) {
		add(p)
	}
	for _, p := range blockedTSQRCandidates(req) {
		add(p)
	}
	if req.IncludeBaselines {
		if p, ok := pgeqrfReference(req, mach); ok {
			add(p)
		}
	}
	// Out-of-core fallback: when a finite memory budget rejected every
	// in-core variant, the streamed CholeskyQR2 rows — whose footprint is
	// three panels' worth plus O(n²), not the whole matrix — are
	// enumerated. They never compete with in-core rows (the extra passes
	// over the data on the disk tier always lose), so the routing is
	// driven purely by MemBudget.
	if len(plans) == 0 && req.MemBudget > 0 {
		for _, p := range streamCandidates(req) {
			add(p)
		}
	}
	if len(plans) == 0 {
		if rejectedByCond {
			return nil, fmt.Errorf("plan: no variant meets ‖QᵀQ−I‖ ≤ %g at κ≈%g for %dx%d on ≤%d ranks",
				orthTol, req.CondEst, req.M, req.N, req.Procs)
		}
		return nil, fmt.Errorf("plan: no feasible plan for %dx%d on ≤%d ranks (budget %d bytes)",
			req.M, req.N, req.Procs, req.MemBudget)
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Seconds < plans[j].Seconds })
	if req.MaxPlans > 0 && len(plans) > req.MaxPlans {
		plans = plans[:req.MaxPlans]
	}
	return plans, nil
}

// Best returns the top-ranked executable plan. Baseline reference rows
// are never considered.
func Best(req Request) (Plan, error) {
	req.IncludeBaselines = false
	req.MaxPlans = 0
	plans, err := Enumerate(req)
	if err != nil {
		return Plan{}, err
	}
	return plans[0], nil
}

// checkMachine rejects a partially-specified machine instead of
// silently falling back to a default: every field Machine.Time divides
// by must be positive, and latency must not be negative.
func checkMachine(m costmodel.Machine) error {
	if m.AlphaSec < 0 || m.InjBandwidth <= 0 || m.PeakNodeFlops <= 0 || m.PPN <= 0 ||
		m.Duplex <= 0 || m.GemmEff <= 0 || m.UpdateEff <= 0 || m.PanelEff <= 0 {
		return fmt.Errorf("plan: machine %q is incompletely specified (need positive bandwidth, peak, PPN, duplex, and efficiency factors)", m.Name)
	}
	return nil
}

func sequentialCandidates(req Request) []Plan {
	cost, err := costmodel.OneDCQR2(req.M, req.N, 1)
	if err != nil {
		return nil
	}
	mem, err := costmodel.OneDCQR2Memory(req.M, req.N, 1)
	if err != nil {
		return nil
	}
	return []Plan{{
		Variant: Sequential, C: 1, D: 1, Procs: 1, Cost: cost, MemWords: mem,
		Rationale: "single rank: no communication, CholeskyQR2's ~4mn² flops",
	}}
}

// oneDCandidates enumerates 1D-CQR2 over every rank count 2..Procs that
// divides m. More ranks cut the dominant 4mn²/p flop term but pay an
// extra log p latency in the Gram Allreduce, so the optimum can be
// interior when n² is large relative to mn/p.
func oneDCandidates(req Request) []Plan {
	var out []Plan
	for p := 2; p <= req.Procs; p++ {
		if req.M%p != 0 {
			continue
		}
		cost, err := costmodel.OneDCQR2(req.M, req.N, p)
		if err != nil {
			continue
		}
		mem, err := costmodel.OneDCQR2Memory(req.M, req.N, p)
		if err != nil {
			continue
		}
		out = append(out, Plan{
			Variant: OneD, C: 1, D: p, Procs: p, Cost: cost, MemWords: mem,
			Rationale: fmt.Sprintf("c=1 tall-skinny regime: n²-word Gram Allreduce over %d ranks, no replication", p),
		})
	}
	return out
}

// shiftedCandidates enumerates the three-pass shifted CholeskyQR3 over
// every 1D rank count (p = 1 is the sequential case). At ~1.5× the
// CholeskyQR2 cost it never outranks the plain family on well-behaved
// inputs; its reason to exist is the condition gate — when CondEst puts
// κ(A) beyond the CQR2 family's ε^{-1/2} regime, these rows (and the
// Householder baselines) are all that survive.
func shiftedCandidates(req Request) []Plan {
	var out []Plan
	for p := 1; p <= req.Procs; p++ {
		if req.M%p != 0 {
			continue
		}
		cost, err := costmodel.OneDShiftedCQR3(req.M, req.N, p)
		if err != nil {
			continue
		}
		mem, err := costmodel.OneDShiftedCQR3Memory(req.M, req.N, p)
		if err != nil {
			continue
		}
		out = append(out, Plan{
			Variant: ShiftedCQR3, C: 1, D: p, Procs: p, Cost: cost, MemWords: mem,
			Rationale: fmt.Sprintf("shifted CholeskyQR3 over %d ranks: stable far beyond CQR2's κ≈1e7 ceiling at ~1.5× the flops", p),
		})
	}
	return out
}

// gridCandidates enumerates the c × d × c family with c ≥ 2: c | d,
// c·d·c ≤ Procs, d | m, c | n (the divisibility the cyclic layout and
// the subcube CFR3D require). For each feasible grid it also prices the
// §V panel variant at every width b with c | b, b | n, b < n.
func gridCandidates(req Request) []Plan {
	var out []Plan
	for c := 2; c*c*c <= req.Procs; c++ {
		if req.N%c != 0 {
			continue
		}
		for d := c; c*d*c <= req.Procs; d += c {
			if req.M%d != 0 {
				continue
			}
			prm := costmodel.CACQRParams{C: c, D: d, BaseSize: req.BaseSize, InverseDepth: req.InverseDepth}
			cost, err := costmodel.CACQR2(req.M, req.N, prm)
			if err != nil {
				continue
			}
			mem, err := costmodel.CACQR2Memory(req.M, req.N, prm)
			if err != nil {
				continue
			}
			out = append(out, Plan{
				Variant: CACQR2, C: c, D: d, Procs: c * d * c, Cost: cost, MemWords: mem,
				Rationale: fmt.Sprintf("c=%d replicates the Gram work to cut words/rank ~√c at %d× memory, d=%d row blocks", c, c, d),
			})
			out = append(out, panelCandidates(req, c, d)...)
		}
	}
	return out
}

func panelCandidates(req Request, c, d int) []Plan {
	var out []Plan
	prm := costmodel.CACQRParams{C: c, D: d, BaseSize: req.BaseSize, InverseDepth: req.InverseDepth}
	for b := c; b < req.N; b += c {
		if req.N%b != 0 {
			continue
		}
		cost, err := costmodel.PanelCACQR2(req.M, req.N, b, prm)
		if err != nil {
			continue
		}
		mem, err := costmodel.PanelCACQR2Memory(req.M, req.N, b, prm)
		if err != nil {
			continue
		}
		out = append(out, Plan{
			Variant: PanelCACQR2, C: c, D: d, PanelWidth: b, Procs: c * d * c, Cost: cost, MemWords: mem,
			Rationale: fmt.Sprintf("width-%d panels cut the flop overhead toward Householder's 2mn² at %d extra synchronizations", b, req.N/b-1),
		})
	}
	return out
}

// tsqrCandidates enumerates the binary-tree baseline over power-of-two
// rank counts with m divisible and local blocks still tall (m/p ≥ n).
func tsqrCandidates(req Request) []Plan {
	var out []Plan
	for p := 2; p <= req.Procs; p *= 2 {
		if req.M%p != 0 || req.M/p < req.N {
			continue
		}
		cost, err := costmodel.TSQR(req.M, req.N, p)
		if err != nil {
			continue
		}
		mem, err := costmodel.TSQRMemory(req.M, req.N, p)
		if err != nil {
			continue
		}
		out = append(out, Plan{
			Variant: TSQR, C: 1, D: p, Procs: p, Cost: cost, MemWords: mem,
			Rationale: fmt.Sprintf("binary-tree Householder over %d ranks: unconditionally stable, log p small QRs on the critical path", p),
		})
	}
	return out
}

// blockedTSQRCandidates enumerates the blocked (BGS2) TSQR variant over
// power-of-two rank counts where the plain tree is infeasible (m/p < n)
// — its reason to exist is lifting that restriction to m/p ≥ b. Panel
// widths run over the divisors of n that still fit a local block.
func blockedTSQRCandidates(req Request) []Plan {
	var out []Plan
	for p := 2; p <= req.Procs; p *= 2 {
		if req.M%p != 0 || req.M/p >= req.N {
			continue
		}
		for b := 1; b < req.N && b <= req.M/p; b++ {
			if req.N%b != 0 {
				continue
			}
			cost, err := costmodel.BlockedTSQR(req.M, req.N, b, p)
			if err != nil {
				continue
			}
			mem, err := costmodel.BlockedTSQRMemory(req.M, req.N, b, p)
			if err != nil {
				continue
			}
			out = append(out, Plan{
				Variant: TSQR, C: 1, D: p, PanelWidth: b, Procs: p, Cost: cost, MemWords: mem,
				Rationale: fmt.Sprintf("blocked TSQR over %d ranks: width-%d panels lift the m/p ≥ n restriction (BGS2 cross-panel loss O(ε·κ))", p, b),
			})
		}
	}
	return out
}

// streamCandidates enumerates the out-of-core streamed CholeskyQR2 on
// one rank over doubling panel heights b = n, 2n, 4n, … ≤ m, priced
// with the Q pass and — when the condition estimate is beyond plain
// CholeskyQR2 — on the shifted ladder the driver will take. Flops and
// bytes do not depend on b; taller panels mean fewer I/O operations on
// the δ-tier, so among the rows that fit the budget the tallest ranks
// cheapest and the memory gate picks the workable ones.
func streamCandidates(req Request) []Plan {
	var out []Plan
	shifted, reads := CQR2Breaks(req.CondEst), 3
	if shifted {
		reads = 4
	}
	for b := req.N; b <= req.M; b *= 2 {
		cost, err := costmodel.StreamCQR2(req.M, req.N, b, true, shifted)
		if err != nil {
			continue
		}
		mem, err := costmodel.StreamCQR2Memory(req.M, req.N, b)
		if err != nil {
			continue
		}
		out = append(out, Plan{
			Variant: StreamCQR2, C: 1, D: 1, PanelWidth: b, Procs: 1,
			Cost: cost, MemWords: mem,
			Rationale: fmt.Sprintf("out-of-core: no in-core variant fits the budget; accumulate the Gram matrix over %d-row panels (%d reads + 1 write), resident ≈ 3 panels + O(n²)", b, reads),
		})
	}
	return out
}

// pgeqrfReference prices the ScaLAPACK-style baseline and returns only
// the cheapest configuration found as a reference row (executable via
// FactorizePlan, never preferred by Best): pr over divisors of m, pc
// over powers of two with pr·pc ≤ Procs, and nb over divisors of n up
// to 64.
func pgeqrfReference(req Request, mach costmodel.Machine) (Plan, bool) {
	var best Plan
	found := false
	for pr := 1; pr <= req.Procs; pr++ {
		if req.M%pr != 0 {
			continue
		}
		for pc := 1; pr*pc <= req.Procs; pc *= 2 {
			for nb := 1; nb <= 64 && nb <= req.N; nb++ {
				if req.N%nb != 0 {
					continue
				}
				cost, err := costmodel.PGEQRF(req.M, req.N, pr, pc, nb)
				if err != nil {
					continue
				}
				mem, err := costmodel.PGEQRFMemory(req.M, req.N, pr, pc, nb)
				if err != nil {
					continue
				}
				p := Plan{
					Variant: PGEQRF, C: pc, D: pr, PanelWidth: nb, Procs: pr * pc,
					Cost: cost, MemWords: mem,
					Rationale: fmt.Sprintf("ScaLAPACK-style reference on a %d×%d grid, nb=%d", pr, pc, nb),
				}
				p.Seconds = mach.Time(p.Cost)
				if !found || p.Seconds < best.Seconds {
					best, found = p, true
				}
			}
		}
	}
	return best, found
}
