package transport

// Ledger is one rank's msgs/words/flops account, with the per-phase
// breakdown behind Proc.SetPhase. A backend's Proc embeds it and adds
// what only it measures — the simulator its virtual clock, the TCP
// backend wire bytes and wall time. Like the Proc, it belongs to the
// rank's goroutine.
type Ledger struct {
	msgs, words, flops int64
	phase              string
	phases             map[string]Counters
}

// SetPhase labels subsequent charges with a phase name (e.g. an
// algorithm line number) and returns the previous label so callers can
// restore it. Per-phase counters appear in Stats.Phases, letting tests
// compare measured per-line costs against the model's per-line tables.
// An empty label disables phase accounting for the following charges.
func (l *Ledger) SetPhase(label string) (prev string) {
	prev = l.phase
	l.phase = label
	return prev
}

// ChargeComm adds alphaUnits messages and words 8-byte words.
func (l *Ledger) ChargeComm(alphaUnits, words int64) {
	if alphaUnits < 0 || words < 0 {
		panic("transport: negative communication charge")
	}
	l.msgs += alphaUnits
	l.words += words
	l.chargePhase(alphaUnits, words, 0)
}

// ChargeFlops adds flops floating point operations.
func (l *Ledger) ChargeFlops(flops int64) {
	if flops < 0 {
		panic("transport: negative flop count")
	}
	l.flops += flops
	l.chargePhase(0, 0, flops)
}

// chargePhase accumulates a charge into the current phase, if any.
func (l *Ledger) chargePhase(msgs, words, flops int64) {
	if l.phase == "" {
		return
	}
	if l.phases == nil {
		l.phases = make(map[string]Counters)
	}
	c := l.phases[l.phase]
	c.Msgs += msgs
	c.Words += words
	c.Flops += flops
	l.phases[l.phase] = c
}

// Counters returns the accumulated Msgs, Words and Flops; Bytes and
// Time are the embedding backend's to fill.
func (l *Ledger) Counters() Counters {
	return Counters{Msgs: l.msgs, Words: l.words, Flops: l.flops}
}

// Phases returns the per-phase counters (nil when no phase was set).
func (l *Ledger) Phases() map[string]Counters { return l.phases }
