package bench

import (
	"strings"
	"testing"

	"cacqr/internal/costmodel"
)

// These tests pin the reproduction's shape criteria (DESIGN.md §4): who
// wins, by roughly what factor, and where crossovers fall. They guard the
// calibrated machine models against regressions.

func ratioAtLastTick(t *testing.T, f *Figure) float64 {
	t.Helper()
	last := len(f.Ticks) - 1
	cq, _ := f.Best(last, "CA-CQR2")
	sc, _ := f.Best(last, "ScaLAPACK")
	if sc <= 0 {
		t.Fatalf("%s: no ScaLAPACK point at last tick", f.ID)
	}
	return cq / sc
}

func TestFig7StrongScalingShape(t *testing.T) {
	figs := Fig7()
	if len(figs) != 4 {
		t.Fatalf("want 4 panels, got %d", len(figs))
	}
	// Criterion 1: CA-CQR2 beats ScaLAPACK at N=1024 on every panel by
	// a healthy factor (paper: 2.6x, 3.3x, 3.1x, 2.7x; we accept ≥1.5x
	// with the two column-heavy panels ≥2x).
	for i, f := range figs {
		r := ratioAtLastTick(t, f)
		if r < 1.5 {
			t.Errorf("%s: ratio %.2f at N=1024, want ≥ 1.5", f.ID, r)
		}
		if i < 2 && r < 2.0 {
			t.Errorf("%s: ratio %.2f at N=1024, want ≥ 2.0 for column-heavy shapes", f.ID, r)
		}
	}
	// Criterion: larger-c grids overtake smaller-c grids as N grows
	// (crossovers). In Fig7b, the c=4 variant starts above the c=8
	// variant and ends below it.
	for _, f := range figs {
		if f.ID != "Fig7b" {
			continue
		}
		var c4, c8 *Series
		for i := range f.Series {
			if strings.Contains(f.Series[i].Label, ",4,") {
				c4 = &f.Series[i]
			}
			if strings.Contains(f.Series[i].Label, ",8,") {
				c8 = &f.Series[i]
			}
		}
		if c4 == nil || c8 == nil {
			t.Fatal("Fig7b missing c=4 or c=8 series")
		}
		last := len(f.Ticks) - 1
		if !(c4.Y[0] > c8.Y[0]) {
			t.Errorf("Fig7b: c=4 should lead at N=64 (%.1f vs %.1f)", c4.Y[0], c8.Y[0])
		}
		if !(c8.Y[last] > c4.Y[last]) {
			t.Errorf("Fig7b: c=8 should lead at N=1024 (%.1f vs %.1f)", c8.Y[last], c4.Y[last])
		}
	}
}

func TestFig6BlueWatersShape(t *testing.T) {
	figs := Fig6()
	for _, f := range figs {
		// Criterion 3: on Blue Waters ScaLAPACK wins at small node
		// counts.
		cq, _ := f.Best(0, "CA-CQR2")
		sc, _ := f.Best(0, "ScaLAPACK")
		if cq >= sc {
			t.Errorf("%s: CA-CQR2 %.1f should trail ScaLAPACK %.1f at N=32", f.ID, cq, sc)
		}
		// ...but catches up by N=2048 (paper: "performance difference is
		// small"; our model reaches parity or better).
		if r := ratioAtLastTick(t, f); r < 0.95 {
			t.Errorf("%s: ratio %.2f at N=2048, want ≥ 0.95 (near-parity)", f.ID, r)
		}
	}
	// Criterion 4: crossovers between c grids on Fig6b: c=1 declines
	// fastest; by the last tick the ordering among CA-CQR2 variants is
	// c=4 > c=2 > c=1.
	for _, f := range figs {
		if f.ID != "Fig6b" {
			continue
		}
		val := func(substr string, tick int) float64 {
			for _, s := range f.Series {
				if strings.Contains(s.Label, substr) {
					return s.Y[tick]
				}
			}
			t.Fatalf("missing series %s", substr)
			return 0
		}
		last := len(f.Ticks) - 1
		c1, c2, c4 := val(",1,", last), val(",2,", last), val(",4,", last)
		if !(c4 > c2 && c2 > c1) {
			t.Errorf("Fig6b at N=2048: want c=4 > c=2 > c=1, got %.1f, %.1f, %.1f", c4, c2, c1)
		}
		// At the first tick c=1 is competitive (within 10%) with c=4.
		if val(",1,", 0) < 0.8*val(",4,", 0) {
			t.Errorf("Fig6b at N=32: c=1 should be competitive")
		}
	}
}

func TestFig5WeakScalingShape(t *testing.T) {
	figs := Fig5()
	if len(figs) != 4 {
		t.Fatalf("want 4 panels, got %d", len(figs))
	}
	// Criterion 2: CA-CQR2 wins weak scaling at (8,4) on every panel
	// (paper band 1.1–1.9x; our calibration lands 1.5–2.5x).
	for _, f := range figs {
		r := ratioAtLastTick(t, f)
		if r < 1.1 || r > 3.0 {
			t.Errorf("%s: weak-scaling ratio %.2f at (8,4), want within [1.1, 3.0]", f.ID, r)
		}
	}
	// The grid tracks the matrix (§IV-C): Fig5a's d/c = a/b curve runs
	// c = 8·b, d = P/c² on N = 8ab² nodes, which fills P exactly on every
	// step, and performance per node stays within a 2x band along the
	// progression (the paper's curves are near-flat). The one gap is
	// (1,2), where that grid has d < c.
	for _, st := range WeakProgression(7) {
		procs, c := costmodel.Stampede2.PPN*8*st.A*st.B*st.B, 8*st.B
		if d := procs / (c * c); c*c*d != procs {
			t.Errorf("(%d,%d): grid %dx%dx%d does not fill P=%d", st.A, st.B, c, d, c, procs)
		}
	}
	flat := figs[0].Series[0]
	lo, hi, points := flat.Y[0], flat.Y[0], 0
	for i, y := range flat.Y {
		if flat.Valid[i] {
			lo, hi, points = min(lo, y), max(hi, y), points+1
		}
	}
	if flat.Label != "CA-CQR2-(1a/b,0)" || points != 6 || hi/lo > 2 {
		t.Errorf("%s %s: %d points in [%.1f, %.1f], want 6 within a 2x band", figs[0].ID, flat.Label, points, lo, hi)
	}
}

func TestFig4BlueWatersWeakShape(t *testing.T) {
	figs := Fig4()
	if len(figs) != 3 {
		t.Fatalf("want 3 panels, got %d", len(figs))
	}
	for _, f := range figs {
		// ScaLAPACK leads at the first tick on Blue Waters — except on
		// the extreme tall-skinny panel (c), where the near-1D CQR2
		// variants are in CholeskyQR2's home regime and the model lets
		// them edge ahead.
		cq, _ := f.Best(0, "CA-CQR2")
		sc, _ := f.Best(0, "ScaLAPACK")
		limit := 1.15
		if f.ID == "Fig4c" {
			limit = 1.3
		}
		if cq > limit*sc {
			t.Errorf("%s: CA-CQR2 %.1f should not dominate ScaLAPACK %.1f at (2,1) on Blue Waters", f.ID, cq, sc)
		}
		// Small-c variants must not be suited to many columns: within
		// panel (a), the largest d/c (smallest c) series is worst.
		if f.ID == "Fig4a" {
			last := len(f.Ticks) - 1
			big, _ := f.Best(last, "CA-CQR2-(4a/b")
			small, _ := f.Best(last, "CA-CQR2-(256a/b")
			if small >= big {
				t.Errorf("Fig4a: c too small should hurt with many columns (%.1f vs %.1f)", small, big)
			}
		}
	}
}

func TestFig1SummariesConsistent(t *testing.T) {
	a := Fig1a()
	if len(a.Series) != 8 {
		t.Fatalf("Fig1a should carry 4 size pairs, got %d series", len(a.Series))
	}
	for _, s := range a.Series {
		for i, ok := range s.Valid {
			if !ok {
				t.Errorf("Fig1a: %s missing point %d", s.Label, i)
			}
		}
	}
	b := Fig1b()
	if len(b.Series) != 8 {
		t.Fatalf("Fig1b should carry 4 shape pairs, got %d series", len(b.Series))
	}
	// Weak-scaling advantage at (8,4) within the paper's qualitative
	// band on every shape.
	last := len(b.Ticks) - 1
	for i := 0; i+1 < len(b.Series); i += 2 {
		sc, cq := b.Series[i].Y[last], b.Series[i+1].Y[last]
		if cq < sc {
			t.Errorf("Fig1b: CA-CQR2 (%.1f) should beat ScaLAPACK (%.1f) for %s", cq, sc, b.Series[i].Label)
		}
	}
}

func TestTable1ExponentFits(t *testing.T) {
	out := Table1()
	if !strings.Contains(out, "MM3D") || !strings.Contains(out, "CA-CQR") {
		t.Fatal("Table1 missing rows")
	}
	// The MM3D bandwidth row must fit its exponent essentially exactly.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "MM3D") && strings.Contains(line, "bandwidth") {
			if !strings.Contains(line, "-0.667") {
				t.Fatalf("MM3D bandwidth exponent drifted: %s", line)
			}
		}
	}
}

func TestTablesMatchInstrumentedRuns(t *testing.T) {
	// Each table generator embeds a model-vs-run cross check; rendering
	// must succeed and report equal totals.
	for name, gen := range map[string]func() (string, error){
		"table2": Table2, "table34": Table34, "table56": Table56,
	} {
		out, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "must equal model") {
			t.Fatalf("%s: missing cross-check section", name)
		}
		if err := checkTotalsEqual(out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// checkTotalsEqual parses consecutive "model total" / "measured run"
// lines and verifies the α/β/γ triples agree.
func checkTotalsEqual(out string) error {
	lines := strings.Split(out, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if strings.Contains(lines[i], "model total:") {
			m := strings.SplitN(lines[i], ":", 2)[1]
			r := strings.SplitN(lines[i+1], ":", 2)[1]
			m = strings.TrimSpace(m)
			r = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(r), "(per-rank maxima; must equal model)"))
			if strings.TrimSpace(m) != strings.TrimSpace(r) {
				return &mismatchError{m, r}
			}
		}
	}
	return nil
}

type mismatchError struct{ model, run string }

func (e *mismatchError) Error() string {
	return "model total " + e.model + " != measured " + e.run
}

func TestTracesVerify(t *testing.T) {
	if _, err := Fig2Trace(); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig3Trace(); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracySweep(t *testing.T) {
	out := Accuracy()
	if !strings.Contains(out, "1e+09") {
		t.Fatal("accuracy sweep missing rows")
	}
	// CQR must fail (or degrade) by 1e+11 while sCQR3 keeps machine
	// precision — check the narrative markers.
	if !strings.Contains(out, "failed") {
		t.Fatal("expected CQR/CQR2 failure at extreme conditioning")
	}
}

func TestRenderCSV(t *testing.T) {
	f := &Figure{ID: "X", Title: "t", XLabel: "x,axis", YLabel: "y", Ticks: []string{"a", "b"}}
	s := Series{Label: `quo"ted`}
	s.AddPoint(1.5, true)
	s.AddPoint(0, false)
	f.Series = append(f.Series, s)
	out := f.RenderCSV()
	want := "\"x,axis\",\"quo\"\"ted\"\na,1.5\nb,\n"
	if out != want {
		t.Fatalf("CSV output:\n%q\nwant:\n%q", out, want)
	}
}

func TestRenderStable(t *testing.T) {
	f := &Figure{ID: "X", Title: "t", XLabel: "x", YLabel: "y", Ticks: []string{"1", "2"}}
	s := Series{Label: "s"}
	s.AddPoint(1.0, true)
	s.AddPoint(0, false)
	f.Series = append(f.Series, s)
	out := f.Render()
	if !strings.Contains(out, "1.0") || !strings.Contains(out, "-") {
		t.Fatalf("render wrong:\n%s", out)
	}
}
