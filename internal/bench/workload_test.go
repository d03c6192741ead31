package bench

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import "testing"

func TestWeakProgressionReproducesPaperAxis(t *testing.T) {
	// §IV-C: progression 1 used 3x as often as progression 2 yields the
	// shared x-axis (2,1),(1,2),(2,2),(4,2),(8,2),(4,4),(8,4).
	steps := WeakProgression(7)
	want := []struct{ a, b int }{{2, 1}, {1, 2}, {2, 2}, {4, 2}, {8, 2}, {4, 4}, {8, 4}}
	if len(steps) != len(want) {
		t.Fatalf("got %d steps", len(steps))
	}
	for i, w := range want {
		if steps[i].A != w.a || steps[i].B != w.b {
			t.Fatalf("step %d: got (%d,%d), want (%d,%d)", i, steps[i].A, steps[i].B, w.a, w.b)
		}
	}
	// Rule accounting: 2 of the first 8 applications are rule 2.
	long := WeakProgression(8)
	rule2 := 0
	for _, s := range long {
		if s.Rule == 2 {
			rule2++
		}
	}
	if rule2 != 2 {
		t.Fatalf("rule 2 used %d of 8 times, want 2 (1:3 ratio)", rule2)
	}
}

func TestWeakProgressionKeepsWorkPerProcessorConstant(t *testing.T) {
	// mn²/P must be invariant along the progression (the weak-scaling
	// contract): m ~ a, n ~ b, P ~ a·b².
	const bm, bn, nf = 131072, 8192, 8
	steps := WeakProgression(7)
	ref := float64(bm) * float64(bn) * float64(bn) / float64(nf)
	for _, st := range steps {
		m := float64(bm * st.A)
		n := float64(bn * st.B)
		p := float64(nf * st.A * st.B * st.B)
		if got := m * n * n / p; got != ref {
			t.Fatalf("(%d,%d): mn²/P = %g, want %g", st.A, st.B, got, ref)
		}
	}
}

func TestExtPanelFigure(t *testing.T) {
	f := ExtPanel()
	if len(f.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(f.Series))
	}
	over := f.Series[0]
	last := len(f.Ticks) - 1
	// Whole-matrix CQR2 overhead on a square matrix is large (~5-6x);
	// narrow panels must approach Householder's count within ~2x.
	if over.Y[last] < 3 {
		t.Fatalf("whole-matrix overhead %.2f implausibly low", over.Y[last])
	}
	if over.Y[0] > 2 {
		t.Fatalf("narrow-panel overhead %.2f did not drop below 2x", over.Y[0])
	}
	// Overhead must be monotone in panel width.
	for i := 1; i < len(over.Y); i++ {
		if over.Valid[i] && over.Valid[i-1] && over.Y[i] < over.Y[i-1]-1e-9 {
			t.Fatalf("overhead not monotone at tick %d", i)
		}
	}
}

func TestExtMemoryFigure(t *testing.T) {
	f := ExtMemory()
	if len(f.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(f.Series))
	}
	// The tall-skinny series grows with c (replication overhead).
	tall := f.Series[0]
	for i := 1; i < len(tall.Y); i++ {
		if tall.Y[i] <= tall.Y[i-1] {
			t.Fatalf("tall-skinny memory not growing with c at tick %d", i)
		}
	}
	// The square-ish series has an interior minimum (Gram term first).
	sq := f.Series[1]
	minAt := 0
	for i, v := range sq.Y {
		if v < sq.Y[minAt] {
			minAt = i
		}
	}
	if minAt == 0 {
		t.Fatal("square-ish memory should not be minimized at c=1")
	}
}

func TestMiniStrongFigure(t *testing.T) {
	f, err := MiniStrong()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(f.Series))
	}
	gamma := f.Series[1]
	// Compute time must fall monotonically with P (work is divided).
	for i := 1; i < len(gamma.Y); i++ {
		if gamma.Y[i] >= gamma.Y[i-1] {
			t.Fatalf("gamma not decreasing at tick %d: %v", i, gamma.Y)
		}
	}
	// Synchronization on c=2 grids exceeds the 1D grids' (CFR3D's
	// recursion tree costs latency).
	alpha := f.Series[2]
	if alpha.Y[3] <= alpha.Y[2] {
		t.Fatalf("c=2 grid should pay more latency than 1D: %v", alpha.Y)
	}
}

func TestExtTrendFigure(t *testing.T) {
	f := ExtTrend()
	if len(f.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(f.Series))
	}
	s2, bw := f.Series[0], f.Series[1]
	for i := range f.Ticks {
		if !s2.Valid[i] || !bw.Valid[i] {
			t.Fatalf("missing point at tick %d", i)
		}
		// The §IV architectural claim: the speedup on the
		// high-flops-to-bandwidth machine strictly exceeds the
		// low-ratio machine's, on every shape.
		if s2.Y[i] <= bw.Y[i] {
			t.Fatalf("tick %d: Stampede2 speedup %.2f not above BlueWaters %.2f", i, s2.Y[i], bw.Y[i])
		}
	}
	// And on Stampede2 CA-CQR2 wins outright at 1024 nodes.
	for i := range f.Ticks {
		if s2.Y[i] < 1.5 {
			t.Fatalf("tick %d: Stampede2 speedup %.2f below 1.5", i, s2.Y[i])
		}
	}
}

func TestExtTSQRFigure(t *testing.T) {
	f := ExtTSQR()
	if len(f.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(f.Series))
	}
	// CQR2 must beat TSQR increasingly as P grows (the log P critical
	// path), and CA-CQR2's best grid must never lose to plain 1D-CQR2.
	var cqr2, ts, ca *Series
	for i := range f.Series {
		switch f.Series[i].Label {
		case "1D-CQR2":
			cqr2 = &f.Series[i]
		case "TSQR":
			ts = &f.Series[i]
		case "CA-CQR2(best c)":
			ca = &f.Series[i]
		}
	}
	last := len(f.Ticks) - 1
	if cqr2.Y[last] <= ts.Y[last] {
		t.Fatalf("1D-CQR2 (%.1f) should beat TSQR (%.1f) at the largest scale", cqr2.Y[last], ts.Y[last])
	}
	firstRatio := cqr2.Y[0] / ts.Y[0]
	lastRatio := cqr2.Y[last] / ts.Y[last]
	if lastRatio <= firstRatio {
		t.Fatalf("CQR2 advantage should grow with P: %.2f -> %.2f", firstRatio, lastRatio)
	}
	// CA-CQR2 at c=1 is the 1D algorithm modulo the (1/3 vs 1)·n³ final
	// triangular product, so "best c" tracks 1D-CQR2 within 1%.
	for i := range ca.Y {
		if ca.Valid[i] && cqr2.Valid[i] && ca.Y[i] < 0.99*cqr2.Y[i] {
			t.Fatalf("best CA-CQR2 (%.2f) below 1D-CQR2 (%.2f) at tick %d", ca.Y[i], cqr2.Y[i], i)
		}
	}
}
