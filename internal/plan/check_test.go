package plan

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"strings"
	"testing"

	"cacqr/internal/costmodel"
)

// TestCheckTable is the one list of what fits and what does not: every
// per-variant rejection the entry points surface (root
// TestFactorizeOnGridValidation and TestBadShapesFailBeforeLaunch assert
// that they surface it before a rank starts) is a row here, next to the
// plans Check accepts and what it derives for them.
func TestCheckTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		m, n int
		p    Plan
		err  string // substring of the rejection; "" = fits
		want Plan   // Procs and PanelWidth Check must return when it fits
	}{
		{"grid c=0", 8, 4, Plan{Variant: CACQR2, C: 0, D: 1}, "invalid grid 0x1x0", Plan{}},
		{"grid c∤d", 96, 8, Plan{Variant: CACQR2, C: 2, D: 3}, "invalid grid 2x3x2", Plan{}},
		{"grid d<c", 8, 4, Plan{Variant: CACQR2, C: 4, D: 2}, "invalid grid 4x2x4", Plan{}},
		{"grid d∤m", 96, 8, Plan{Variant: CACQR2, C: 1, D: 5}, "96x8 matrix not divisible by the 1x5x1 grid", Plan{}},
		{"grid c∤n", 96, 9, Plan{Variant: CACQR2, C: 2, D: 2}, "96x9 matrix not divisible by the 2x2x2 grid", Plan{}},
		{"grid fits", 96, 8, Plan{Variant: CACQR2, C: 2, D: 4}, "", Plan{Procs: 16}},
		{"grid c=1 is the 1D layout", 96, 8, Plan{Variant: CACQR2, C: 1, D: 3, Procs: 99}, "", Plan{Procs: 3}},
		{"panel b∤n", 96, 8, Plan{Variant: PanelCACQR2, C: 1, D: 2, PanelWidth: 3}, "panel width 3 must satisfy", Plan{}},
		{"panel c∤b", 96, 8, Plan{Variant: PanelCACQR2, C: 2, D: 2, PanelWidth: 1}, "panel width 1 must satisfy", Plan{}},
		{"panel b=0", 96, 8, Plan{Variant: PanelCACQR2, C: 2, D: 2}, "panel width 0 must satisfy", Plan{}},
		{"panel on a bad grid", 96, 8, Plan{Variant: PanelCACQR2, C: 2, D: 3, PanelWidth: 2}, "invalid grid", Plan{}},
		{"panel fits", 96, 8, Plan{Variant: PanelCACQR2, C: 2, D: 2, PanelWidth: 4}, "", Plan{Procs: 8, PanelWidth: 4}},
		{"1d on one rank", 96, 8, Plan{Variant: CACQR2, C: 1, D: 1}, "", Plan{Procs: 1}},
		{"1d P∤m", 96, 8, Plan{Variant: CACQR2, C: 1, D: 7}, "96x8 matrix not divisible by the 1x7x1 grid", Plan{}},
		{"1d P=0", 96, 8, Plan{Variant: CACQR2, Procs: 4}, "invalid grid 0x0x0", Plan{}},
		{"1d any P | m", 96, 8, Plan{Variant: CACQR2, C: 1, D: 3}, "", Plan{Procs: 3}},
		{"shifted P∤m", 96, 8, Plan{Variant: ShiftedCQR3, C: 1, D: 7}, "96x8 matrix not divisible by the 1x7x1 grid", Plan{}},
		{"shifted names its grid", 96, 8, Plan{Variant: ShiftedCQR3, Procs: 8}, "invalid grid 0x0x0", Plan{}},
		{"shifted c∤d", 96, 8, Plan{Variant: ShiftedCQR3, C: 2, D: 3}, "invalid grid 2x3x2", Plan{}},
		{"shifted short blocks are fine", 96, 8, Plan{Variant: ShiftedCQR3, C: 1, D: 16}, "", Plan{Procs: 16}},
		{"shifted on a cube", 96, 8, Plan{Variant: ShiftedCQR3, C: 2, D: 2}, "", Plan{Procs: 8}},
		{"tsqr P not 2^k", 96, 8, Plan{Variant: TSQR, Procs: 3}, "power-of-two rank count, got 3", Plan{}},
		{"tsqr blocks short", 96, 8, Plan{Variant: TSQR, Procs: 16}, "row blocks of 6 rows on P=16 are not tall", Plan{}},
		{"tsqr panel∤n", 96, 8, Plan{Variant: TSQR, Procs: 2, PanelWidth: 3}, "panel width 3 must divide n=8", Plan{}},
		{"tsqr negative panel", 96, 8, Plan{Variant: TSQR, Procs: 2, PanelWidth: -2}, "panel width -2 must divide", Plan{}},
		{"blocked tsqr lifts tallness", 96, 8, Plan{Variant: TSQR, Procs: 16, PanelWidth: 4}, "", Plan{Procs: 16, PanelWidth: 4}},
		{"blocked tsqr blocks shorter than a panel", 96, 8, Plan{Variant: TSQR, Procs: 32, PanelWidth: 4}, "shorter than the panel width 4", Plan{}},
		{"pgeqrf zero grid", 96, 8, Plan{Variant: PGEQRF, PanelWidth: 4}, "invalid process grid 0x0", Plan{}},
		{"pgeqrf pr∤m", 96, 8, Plan{Variant: PGEQRF, D: 5, C: 1, PanelWidth: 4}, "m=96 not divisible by pr=5", Plan{}},
		{"pgeqrf nb∤n", 96, 8, Plan{Variant: PGEQRF, D: 2, C: 1, PanelWidth: 3}, "block size 3 must divide n=8", Plan{}},
		{"pgeqrf nb=0", 96, 8, Plan{Variant: PGEQRF, D: 2, C: 1}, "block size 0 must divide", Plan{}},
		{"pgeqrf more columns than blocks", 96, 8, Plan{Variant: PGEQRF, D: 4, C: 4, PanelWidth: 8}, "", Plan{Procs: 16, PanelWidth: 8}},
		{"stream rows < n", 96, 8, Plan{Variant: StreamCQR2, PanelWidth: 4}, "PanelRows 4 < n=8", Plan{}},
		{"stream default rows", 1 << 14, 8, Plan{Variant: StreamCQR2}, "", Plan{Procs: 1, PanelWidth: DefaultPanelRows}},
		{"stream default rows of a wide panel", 1 << 14, 5000, Plan{Variant: StreamCQR2}, "", Plan{Procs: 1, PanelWidth: 5000}},
		{"stream rows clamp to m", 96, 8, Plan{Variant: StreamCQR2, PanelWidth: 1000}, "", Plan{Procs: 1, PanelWidth: 96}},
		{"unknown variant", 96, 8, Plan{Variant: "bogus%d", Procs: 2}, `plan variant "bogus%d" is not executable`, Plan{}},
	} {
		got, err := Check(tc.m, tc.n, tc.p)
		_, perr := Price(tc.m, tc.n, tc.p, costmodel.Machine{})
		if (err == nil) != (perr == nil) {
			t.Errorf("%s: Check says %v, Price says %v", tc.name, err, perr)
		}
		if tc.err != "" {
			if err == nil || !strings.HasPrefix(err.Error(), "plan: ") || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: Check returned %v, want a plan: error containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got.Procs != tc.want.Procs || got.PanelWidth != tc.want.PanelWidth {
			t.Errorf("%s: Check derived Procs=%d PanelWidth=%d, want %d and %d", tc.name, got.Procs, got.PanelWidth, tc.want.Procs, tc.want.PanelWidth)
		}
		if got.Variant != tc.p.Variant || got.C != tc.p.C || got.D != tc.p.D {
			t.Errorf("%s: Check changed the plan's own extents: %+v → %+v", tc.name, tc.p, got)
		}
	}
}

// One rank is CA-CQR2's sequential case, 1 × 1 × 1, not a variant of its
// own: Best on one rank returns that row priced as CA-CQR2 on it, and a
// plan that names only a rank count is a typed rejection, never a
// silent grid.
func TestOneRankIsOneD(t *testing.T) {
	const m, n = 1024, 64
	best, err := Best(Request{M: m, N: n, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best.Variant != CACQR2 || best.C != 1 || best.D != 1 || best.Procs != 1 {
		t.Fatalf("Best on one rank = %+v, want ca-cqr2 on 1×1×1", best)
	}
	want, err := costmodel.CACQR2(m, n, costmodel.CACQRParams{C: 1, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best.Cost != want || best.Seconds != costmodel.Stampede2.Time(want) {
		t.Fatalf("one-rank row priced %+v (%g s), want CACQR2(m, n, 1×1×1) = %+v", best.Cost, best.Seconds, want)
	}
	if !strings.HasPrefix(best.Rationale, "single rank") {
		t.Fatalf("one-rank rationale %q", best.Rationale)
	}
	_, err = Check(m, n, Plan{Variant: CACQR2, Procs: 1})
	var v *violation
	if !errors.As(err, &v) || !strings.Contains(err.Error(), "invalid grid 0x0x0") {
		t.Fatalf("CA-CQR2 with only Procs: %v, want a *violation naming the grid", err)
	}
}

// TestEveryRowIsItsOwnPriceQuery is the point of the design: a row of
// Enumerate, handed back to Check and Price with the request's machine,
// fits and prices to exactly itself — so what the ranking showed is what
// a figure point, a cache entry or FactorizePlan will ask about — and a
// row with one extent nudged is accepted by both or by neither.
func TestEveryRowIsItsOwnPriceQuery(t *testing.T) {
	for _, tc := range sweep {
		for _, req := range []Request{
			{M: tc.m, N: tc.n, Procs: tc.procs, IncludeBaselines: true},
			{M: tc.m, N: tc.n, Procs: tc.procs, Machine: costmodel.BlueWaters, InverseDepth: 1, BaseSize: 8},
			{M: tc.m, N: tc.n, Procs: 1, MemBudget: 8 * 12 * int64(tc.n) * int64(tc.n)}, // stream rows wherever m > 4n
		} {
			rows, err := Enumerate(req)
			if err != nil {
				t.Fatalf("%dx%d p=%d: %v", req.M, req.N, req.Procs, err)
			}
			for _, row := range rows {
				if row.InverseDepth != req.InverseDepth || row.BaseSize != req.BaseSize {
					t.Fatalf("%v: carries knobs (%d, %d), the request priced with (%d, %d)", row, row.InverseDepth, row.BaseSize, req.InverseDepth, req.BaseSize)
				}
				fit, err := Check(req.M, req.N, row)
				if err != nil || fit != row {
					t.Fatalf("%v: Check returned %+v, %v", row, fit, err)
				}
				priced, err := Price(req.M, req.N, row, req.Machine)
				if err != nil || priced != row {
					t.Fatalf("%v: Price returned %+v, %v", row, priced, err)
				}
				for _, nudge := range []func(*Plan){
					func(p *Plan) { p.D++ }, func(p *Plan) { p.C++ }, func(p *Plan) { p.PanelWidth++ },
					func(p *Plan) { p.Procs++ }, func(p *Plan) { p.Procs *= 3 }, func(p *Plan) { p.D, p.C = p.C, p.D },
				} {
					p := row
					nudge(&p)
					_, cerr := Check(req.M, req.N, p)
					_, perr := Price(req.M, req.N, p, req.Machine)
					if (cerr == nil) != (perr == nil) {
						t.Fatalf("%v nudged to %+v: Check says %v, Price says %v", row, p, cerr, perr)
					}
				}
			}
		}
	}
}
