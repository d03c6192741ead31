package transport

import "cacqr/internal/obs"

// Traced makes every collective on every communicator derived from p's
// world from now on record a kind-"collective" span under sp — carrying
// payload bytes and peer count, the α and β terms of one Table V line —
// and returns a Proc whose SetPhase is also the stage call: each phase
// the rank enters is a kind-"stage" span under sp, named by the phase
// label and stamped on its end with the msgs, words and flops the phase
// charged. The world communicator is handed sp and the returned Proc,
// so comm.Proc() reaches both. A nil span returns p unchanged and sets
// nothing, which keeps the untraced path to the nil-safe span calls
// inside each collective: tracing is switched on at the run boundary,
// not a property of a backend.
//
// Point-to-point Send/Recv record nothing: fine-grained message spans
// would dominate the tree (CFR3D's recursion sends thousands), and
// their cost is already visible through the enclosing stage spans and
// the rank's Counters.
func Traced(p Proc, sp *obs.Span) Proc {
	//lint:ignore obssafety the untraced fast path must return the undecorated Proc itself, not a wrapper over a nil span
	if p == nil || sp == nil {
		return p
	}
	t := &tracedProc{Proc: p, sp: sp}
	w := p.World().(*comm) // NewWorld is the only constructor of a Comm
	w.proc, w.span = t, sp
	return t
}

type tracedProc struct {
	Proc
	sp    *obs.Span
	stage *obs.Span // the open stage, nil while no phase is set
	at    Counters  // the rank's counters when stage opened
}

// SetPhase ends the open stage span, stamped with what its phase
// charged, switches the ledger's phase and opens the next stage span
// (none for the empty label).
func (t *tracedProc) SetPhase(label string) string {
	now := t.Proc.Counters()
	t.stage.SetInt("msgs", now.Msgs-t.at.Msgs)
	t.stage.SetInt("words", now.Words-t.at.Words)
	t.stage.SetInt("flops", now.Flops-t.at.Flops)
	t.stage.End()
	t.stage, t.at = nil, now
	if label != "" {
		t.stage = t.sp.Stage(label)
	}
	return t.Proc.SetPhase(label)
}
