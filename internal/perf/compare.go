package perf

import "fmt"

// Regression is one case that slowed past the tolerance versus baseline.
type Regression struct {
	Name       string
	BaselineNs float64
	CurrentNs  float64
	Ratio      float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx)", r.Name, r.CurrentNs, r.BaselineNs, r.Ratio)
}

// MinGatedNs is the baseline ns/op below which a case is reported but
// never gated: sub-100µs latency probes (the cached plan lookup sits at
// 1.1–1.5 µs) live at the scale of timer overhead and scheduler noise on a
// shared runner, where a 25% relative gate would flake without any real
// regression. Every compute case in the suite is well above this floor.
const MinGatedNs = 100_000

// Compare matches current results against baseline by case name and
// returns the cases whose ns/op exceeded baseline·tolerance, plus the
// baseline case names absent from the current report (a renamed or
// dropped case silently losing coverage should be visible, not fatal).
// Cases whose baseline is under MinGatedNs are never flagged — they are
// latency probes too fast for a stable relative gate. Baselines
// recorded in a different mode (quick vs full) share no case names, so
// everything lands in missing — callers should treat a fully missing
// baseline as a configuration error.
func Compare(baseline, current *Report, tolerance float64) (regs []Regression, missing []string) {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if b.NsPerOp >= MinGatedNs && c.NsPerOp > b.NsPerOp*tolerance {
			regs = append(regs, Regression{
				Name:       b.Name,
				BaselineNs: b.NsPerOp,
				CurrentNs:  c.NsPerOp,
				Ratio:      c.NsPerOp / b.NsPerOp,
			})
		}
	}
	return regs, missing
}
