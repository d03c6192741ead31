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

// SetPhase labels subsequent charges with a phase name — in the grid
// algorithms one of costmodel's Line names — and returns the previous
// label so callers can restore it. A phase entered is a phase recorded,
// charged or not: per-phase counters appear in Stats.Phases with the
// same keys as the model's per-line tables, so tests compare the two
// label by label. An empty label disables phase accounting for the
// following charges. This is the one stage call: on a Proc wrapped by
// Traced the switch also ends one stage span and opens the next.
func (l *Ledger) SetPhase(label string) (prev string) {
	prev = l.phase
	l.phase = label
	if label != "" {
		if _, ok := l.phases[label]; !ok {
			l.chargePhase(0, 0, 0)
		}
	}
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
