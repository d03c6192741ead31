package costmodel

import "testing"

// oneDCQR is the paper's Table III closed form for one 1D-CQR pass on p
// ranks: syrk, the n²-word Allreduce, the redundant CholInv, and the
// TRMM-rate Q update.
func oneDCQR(m, n, p int) Cost {
	mloc, nn := int64(m/p), int64(n)
	c := Allreduce(nn*nn, p)
	c.Flops = 2*mloc*nn*nn + 2*nn*nn*nn/3 + nn*nn*nn/3
	return c
}

func TestOneDShiftedCQR3Composition(t *testing.T) {
	// At c = 1 the shifted row is three Table III passes and two folds:
	// α and β are the 1D closed form's exactly (the trace's Allreduce
	// over a one-rank slice is free), and each fold charges the n³ its
	// triangular product runs.
	const m, n, p = 1024, 64, 8
	got, err := ShiftedCACQR3(m, n, CACQRParams{C: 1, D: p})
	if err != nil {
		t.Fatal(err)
	}
	want := oneDCQR(m, n, p).Scale(3)
	want.Flops += 2 * int64(n) * int64(n) * int64(n)
	if got != want {
		t.Fatalf("ShiftedCACQR3 at c = 1 = %v, want %v", got, want)
	}
	two, err := CACQR2(m, n, CACQRParams{C: 1, D: p})
	if err != nil {
		t.Fatal(err)
	}
	// ~1.5× CQR2 in flops, identical α scaling class.
	if got.Flops <= two.Flops || got.Flops >= 2*two.Flops {
		t.Fatalf("shifted flops %d not in (1, 2)× CQR2's %d", got.Flops, two.Flops)
	}
	if _, err := ShiftedCACQR3(100, 64, CACQRParams{C: 1, D: 8}); err == nil {
		t.Fatal("indivisible m accepted")
	}
}

func TestOneDShiftedCQR3Memory(t *testing.T) {
	// The shifted passes run in place, so the row holds what CA-CQR2
	// holds: at c = 1, three row blocks and seven n × n blocks.
	const m, n, p = 1024, 64, 8
	words, err := CACQR2Memory(m, n, CACQRParams{C: 1, D: p})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*int64(m/p)*int64(n) + 7*int64(n)*int64(n); words != want {
		t.Fatalf("c = 1 footprint %d words, want %d", words, want)
	}
	if _, err := CACQR2Memory(100, 64, CACQRParams{C: 1, D: 8}); err == nil {
		t.Fatal("indivisible m accepted")
	}
}

func TestBlockedTSQRReducesToPlainAtFullWidth(t *testing.T) {
	// b = n is a single panel with no trailing update: the blocked
	// recurrence must collapse to the plain TSQR row exactly.
	const m, n, p = 1024, 64, 8
	blocked, err := BlockedTSQR(m, n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := TSQR(m, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if blocked != plain {
		t.Fatalf("BlockedTSQR(b=n) = %v, want plain %v", blocked, plain)
	}
}

func TestBlockedTSQRHandSum(t *testing.T) {
	// Two panels, hand-summed: 2 tree factorizations of the m×b panel
	// plus one BGS2 round (two passes of project + Allreduce + update).
	const m, n, b, p = 256, 32, 16, 4
	got, err := BlockedTSQR(m, n, b, p)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := TSQR(m, b, p)
	if err != nil {
		t.Fatal(err)
	}
	want := panel.Scale(2)
	mloc := int64(m / p)
	rest := int64(n - b)
	want.Flops += 2 * (2 * int64(b) * rest * mloc) // projections
	want = want.Add(Allreduce(int64(b)*rest, p).Scale(2))
	want.Flops += 2 * (2 * mloc * rest * int64(b)) // updates
	if got != want {
		t.Fatalf("BlockedTSQR = %v, want %v", got, want)
	}
}

func TestBlockedTSQRErrors(t *testing.T) {
	if _, err := BlockedTSQR(256, 32, 5, 4); err == nil {
		t.Fatal("b ∤ n accepted")
	}
	if _, err := BlockedTSQR(256, 32, 0, 4); err == nil {
		t.Fatal("b = 0 accepted")
	}
	if _, err := BlockedTSQR(256, 32, 128, 4); err == nil {
		t.Fatal("b > m/p accepted")
	}
	if _, err := BlockedTSQR(100, 32, 16, 8); err == nil {
		t.Fatal("p ∤ m accepted")
	}
	if _, err := BlockedTSQRMemory(256, 32, 5, 4); err == nil {
		t.Fatal("memory: b ∤ n accepted")
	}
}

func TestBlockedTSQRMemoryDominatesPanelTree(t *testing.T) {
	const m, n, b, p = 256, 64, 16, 8
	mem, err := BlockedTSQRMemory(m, n, b, p)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := TSQRMemory(m, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if mem <= panel {
		t.Fatalf("blocked footprint %d not above its panel tree %d", mem, panel)
	}
	// The full-width working set (3 row blocks + R) must be included.
	if floor := 3*int64(m/p)*int64(n) + int64(n)*int64(n); mem < floor {
		t.Fatalf("blocked footprint %d below working-set floor %d", mem, floor)
	}
}
