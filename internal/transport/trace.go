package transport

import "cacqr/internal/obs"

// Traced makes every collective on every communicator derived from p's
// world from now on record a kind-"collective" span under sp — carrying
// payload bytes and peer count, the α and β terms of one Table V line —
// and returns a Proc that kernel code can find sp on via obs.StagesOf
// to hang stage spans on. The world communicator is handed sp and the
// returned Proc, so comm.Proc() reaches the span too. A nil span
// returns p unchanged and sets nothing, which keeps the untraced path
// to the nil-safe span calls inside each collective: tracing is
// switched on at the run boundary, not a property of a backend.
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
	sp *obs.Span
}

// TraceSpan exposes the rank span through obs.SpanCarrier.
func (t *tracedProc) TraceSpan() *obs.Span { return t.sp }
