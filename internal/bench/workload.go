package bench

// Weak-scaling workload generation following the paper's §IV-C protocol:
// two alternating progressions that keep local matrix dimensions and the
// leading-order flop cost mn² per processor constant,
//
//	progression 1: m ← 2m, d ← 2d, pr ← 2pr  (n, c, pc fixed)
//	progression 2: m ← m/2, d ← d/2, n ← 2n, c ← 2c (pr fixed)
//
// with progression 1 employed three times as often as progression 2.
// Starting from (a, b) = (1, 1) this produces the x-axis sequence the
// paper's weak-scaling figures share: (2,1), (1,2), (2,2), (4,2), (8,2),
// (4,4), (8,4), where m scales with a and n with b (N = nodeFactor·a·b²).

// WeakStep is one point of the weak-scaling progression: the (a, b)
// multipliers and the progression rule that produced it.
type WeakStep struct {
	A, B int
	Rule int // 1 or 2; 0 for the starting point
}

// WeakProgression generates steps of the §IV-C protocol after the
// starting point (1,1), applying rule 1 three times as often as rule 2.
// The first `count` generated steps are returned.
func WeakProgression(count int) []WeakStep {
	a, b := 1, 1
	var out []WeakStep
	for i := 0; len(out) < count; i++ {
		// Pattern per 4 steps: 1, 2, 1, 1 — rule 1 used 3x as often.
		rule := 1
		if i%4 == 1 {
			rule = 2
		}
		if rule == 1 {
			a *= 2
		} else {
			a /= 2
			if a < 1 {
				a = 1
			}
			b *= 2
		}
		out = append(out, WeakStep{A: a, B: b, Rule: rule})
	}
	return out
}
