package plan

import (
	"fmt"

	"cacqr/internal/costmodel"
)

// DefaultPanelRows is the panel height of a stream-cqr2 plan that names
// none (PanelWidth 0): max(DefaultPanelRows, n), clamped to m.
const DefaultPanelRows = 4096

// Check fits plan p to an m×n matrix (m ≥ n ≥ 1 is the caller's to
// establish): it is the one home of every extent rule — c | d, d | m and
// c | n on a c × d × c grid, c | b | n for the §V panels, a power-of-two
// rank count and tall (or panel-tall) row blocks for TSQR, pr | m and
// nb | n for PGEQRF, panel rows ≥ n for a streamed run — and returns the plan with what follows from its extents
// filled in: Procs where the plan has a grid, the default and the clamp
// of a stream plan's panel height. A plan Check accepts is executable
// and priceable; nothing else in the module decides either.
func Check(m, n int, p Plan) (Plan, error) {
	if v := p.fit(m, n); !v.ok() {
		return Plan{}, &v
	}
	return p, nil
}

// Price is Check plus the one variant → (cost, memory) table: it fills
// Cost, MemWords, Seconds on mach (the zero value selects Stampede2) and
// PredOrth at its no-hint floor. The paper's legend tuple
// (d, c, InverseDepth) is a Plan, and this is what it costs — the query
// Enumerate makes of every candidate and internal/bench of every figure
// point. A stream-cqr2 plan is priced on the plain ladder with its Q pass.
func Price(m, n int, p Plan, mach costmodel.Machine) (Plan, error) {
	mach, err := resolveMachine(mach)
	if err != nil {
		return Plan{}, err
	}
	if p, err = Check(m, n, p); err != nil {
		return Plan{}, err
	}
	return p, p.price(m, n, mach, 0)
}

// violation is the first extent rule a plan breaks on a shape; the zero
// value means it fits. It formats on demand: the enumeration rejects
// most of its candidates and reads none of their messages.
type violation struct {
	format string
	args   [5]int
	n      int
	// width marks a rule about PanelWidth alone: the same variant and grid
	// may fit at another width, where any other violation rules out every
	// candidate that shares them.
	width bool
}

func bad(format string, args ...int) violation {
	v := violation{format: format, n: len(args)}
	copy(v.args[:], args)
	return v
}

func badWidth(format string, args ...int) violation {
	v := bad(format, args...)
	v.width = true
	return v
}

func (v violation) ok() bool { return v.format == "" }

// final reports a violation that no other panel width can cure.
func (v violation) final() bool { return !v.ok() && !v.width }

func (v *violation) Error() string {
	if v.n == 0 {
		return "plan: " + v.format // a finished message, not a format
	}
	args := make([]any, v.n)
	for i := range args {
		args[i] = v.args[i]
	}
	return "plan: " + fmt.Sprintf(v.format, args...)
}

// fit is Check on the plan in place.
func (p *Plan) fit(m, n int) violation {
	b := p.PanelWidth
	switch p.Variant {
	case StreamCQR2:
		if b == 0 {
			b = max(DefaultPanelRows, n)
		}
		p.Procs, p.PanelWidth = 1, min(b, m)
		if p.PanelWidth < n {
			return badWidth("PanelRows %d < n=%d", p.PanelWidth, n)
		}
	case TSQR:
		np := p.Procs
		switch {
		case np < 1:
			return bad("invalid processor count %d", np)
		case m%np != 0:
			return bad("m=%d not divisible by P=%d", m, np)
		case np&(np-1) != 0:
			return bad("TSQR needs a power-of-two rank count, got %d", np)
		case b < 0 || b > 0 && n%b != 0:
			return badWidth("TSQR panel width %d must divide n=%d", b, n)
		// Plain TSQR factors each m/P × n block, so blocks must be tall;
		// the blocked variant only needs them as tall as a panel.
		case b == 0 && m/np < n:
			return bad("TSQR row blocks of %d rows on P=%d are not tall (need m/P ≥ n=%d, or a panel width)", m/np, np, n)
		case m/np < b:
			return badWidth("TSQR row blocks of %d rows on P=%d are shorter than the panel width %d", m/np, np, b)
		}
	case CACQR2, PanelCACQR2, ShiftedCQR3:
		c, d := p.C, p.D
		switch {
		case c < 1 || d < c || d%c != 0:
			return bad("invalid grid %dx%dx%d (need 1 ≤ c ≤ d, c | d)", c, d, c)
		case m%d != 0 || n%c != 0:
			return bad("%dx%d matrix not divisible by the %dx%dx%d grid (need d | m, c | n)", m, n, c, d, c)
		case p.Variant == PanelCACQR2 && (b < 1 || b%c != 0 || n%b != 0):
			return badWidth("panel width %d must satisfy c | b and b | n (c=%d, n=%d)", b, c, n)
		}
		p.Procs = c * d * c
	case PGEQRF:
		pr, pc := p.D, p.C
		switch {
		case pr < 1 || pc < 1:
			return bad("invalid process grid %dx%d", pr, pc)
		case m%pr != 0:
			return bad("m=%d not divisible by pr=%d process rows", m, pr)
		case b < 1 || n%b != 0:
			return badWidth("PGEQRF block size %d must divide n=%d", b, n)
		}
		p.Procs = pr * pc
	default:
		return bad(fmt.Sprintf("plan variant %q is not executable", p.Variant))
	}
	return violation{}
}

// price fills the modeled fields of a plan that fits: the per-variant
// costmodel pair, the time on mach, and the orthogonality loss predicted
// at cond — which also decides the ladder a streamed run is priced on.
func (p *Plan) price(m, n int, mach costmodel.Machine, cond float64) error {
	prm := costmodel.CACQRParams{C: p.C, D: p.D, BaseSize: p.BaseSize, InverseDepth: p.InverseDepth}
	np, b := p.Procs, p.PanelWidth
	var err, memErr error
	switch p.Variant {
	case ShiftedCQR3:
		p.Cost, err = costmodel.ShiftedCACQR3(m, n, prm)
		p.MemWords, memErr = costmodel.CACQR2Memory(m, n, prm)
	case CACQR2:
		p.Cost, err = costmodel.CACQR2(m, n, prm)
		p.MemWords, memErr = costmodel.CACQR2Memory(m, n, prm)
	case PanelCACQR2:
		p.Cost, err = costmodel.PanelCACQR2(m, n, b, prm)
		p.MemWords, memErr = costmodel.PanelCACQR2Memory(m, n, b, prm)
	case TSQR:
		if b > 0 {
			p.Cost, err = costmodel.BlockedTSQR(m, n, b, np)
			p.MemWords, memErr = costmodel.BlockedTSQRMemory(m, n, b, np)
		} else {
			p.Cost, err = costmodel.TSQR(m, n, np)
			p.MemWords, memErr = costmodel.TSQRMemory(m, n, np)
		}
	case PGEQRF:
		p.Cost, err = costmodel.PGEQRF(m, n, p.D, p.C, b)
		p.MemWords, memErr = costmodel.PGEQRFMemory(m, n, p.D, p.C, b)
	case StreamCQR2:
		p.Cost, err = costmodel.StreamCQR2(m, n, b, true, CQR2Breaks(cond))
		p.MemWords, memErr = costmodel.StreamCQR2Memory(m, n, b)
	}
	if err == nil {
		err = memErr
	}
	p.Seconds = mach.Time(p.Cost)
	p.PredOrth = PredictOrthogonality(p.Variant, m, n, b, cond)
	return err
}
