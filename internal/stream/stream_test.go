package stream

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

func maxDiff(a, b *lin.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var d float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if e := math.Abs(a.At(i, j) - b.At(i, j)); e > d {
				d = e
			}
		}
	}
	return d
}

func orthErr(q *lin.Matrix) float64 {
	g := lin.SyrkNew(q)
	var d float64
	for i := 0; i < g.Rows; i++ {
		for j := 0; j <= i; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e := math.Abs(g.At(i, j) - want); e > d {
				d = e
			}
		}
	}
	return d
}

// factorize runs the driver into a dense sink (or R-only when !writeQ).
func factorize(t *testing.T, a *lin.Matrix, writeQ bool, opts Options) (*Result, *lin.Matrix) {
	t.Helper()
	var snk *DenseSink
	var sink Sink
	if writeQ {
		snk = NewDenseSink(a.Rows, a.Cols)
		sink = snk
	}
	res, err := Factorize(NewDenseSource(a), sink, opts)
	if err != nil {
		t.Fatalf("Factorize(%dx%d, %+v): %v", a.Rows, a.Cols, opts, err)
	}
	if !(res.Pass1Orth < maxPass1Orth) {
		t.Fatalf("result returned with Pass1Orth = %g", res.Pass1Orth)
	}
	if !writeQ {
		return res, nil
	}
	if snk.Rows() != a.Rows {
		t.Fatalf("sink holds %d of %d rows", snk.Rows(), a.Rows)
	}
	return res, snk.Matrix()
}

// checkModel asserts measured == modeled: flops, I/O ops and I/O bytes
// equal costmodel.StreamCQR2 exactly.
func checkModel(t *testing.T, res *Result, m, n, rows int, writeQ, shifted bool) {
	t.Helper()
	want, err := costmodel.StreamCQR2(m, n, rows, writeQ, shifted)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	if res.Flops != want.Flops {
		t.Errorf("driver flops %d != model %d", res.Flops, want.Flops)
	}
	if res.IOOps != want.IOOps {
		t.Errorf("driver IO ops %d != model %d", res.IOOps, want.IOOps)
	}
	if got := res.ReadBytes + res.WrittenBytes; got != want.IOBytes {
		t.Errorf("driver IO bytes %d != model %d", got, want.IOBytes)
	}
}

// The tentpole property: the streamed CholeskyQR2 must reproduce the
// in-core CholeskyQR2 factorization (R to 1e-13 scale, a Q that is
// orthonormal, reproduces A and matches the reference) across panel
// schedules: panels that don't divide m, a tail shorter than n, panel =
// n exactly, and the degenerate single-panel case. No schedule is a
// special case of the driver — a short tail is just fewer rows into the
// same SYRK/TRMM — which the exact model equality on every schedule
// asserts: the model has no branch on the tail.
func TestStreamingMatchesInCore(t *testing.T) {
	cases := []struct {
		name       string
		m, n, rows int
	}{
		{"even-split", 512, 16, 128},
		{"uneven-split", 500, 16, 128},     // tail of 116 ≥ n
		{"short-tail", 517, 16, 128},       // tail of 5 < n
		{"one-row-tail", 513, 16, 128},     // tail of 1
		{"panel-equals-n", 100, 16, 16},    // most panels
		{"single-panel", 300, 16, 1 << 20}, // degenerate: whole matrix in one panel
		{"wide-ish", 256, 48, 96},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := lin.RandomMatrix(tc.m, tc.n, 7)
			qRef, rRef, err := core.CholeskyQR2(a, 0)
			if err != nil {
				t.Fatalf("in-core reference: %v", err)
			}
			res, q := factorize(t, a, true, Options{PanelRows: tc.rows})
			if d := maxDiff(res.R, rRef); d > 1e-13*float64(tc.m) {
				t.Errorf("R mismatch: max |ΔR| = %g", d)
			}
			if !res.R.IsUpperTriangular(0) {
				t.Error("R is not upper triangular")
			}
			if d := orthErr(q); d > 1e-13 {
				t.Errorf("streamed Q not orthonormal: %g", d)
			}
			// Q must reproduce A: ‖A − Q·R‖ small relative to ‖A‖ ~ 1.
			qr := lin.MatMul(q, res.R)
			if d := maxDiff(qr, a); d > 1e-12*float64(tc.n) {
				t.Errorf("‖A − QR‖ = %g", d)
			}
			if d := maxDiff(q, qRef); d > 1e-12 {
				t.Errorf("Q mismatch vs in-core: %g", d)
			}
			b := min(tc.rows, tc.m)
			if want := (tc.m + b - 1) / b; res.Panels != want {
				t.Errorf("Panels = %d, want %d", res.Panels, want)
			}
			if res.Shifted || res.ReadPasses != 3 {
				t.Errorf("well-conditioned run: Shifted=%v ReadPasses=%d, want false/3", res.Shifted, res.ReadPasses)
			}
			checkModel(t, res, tc.m, tc.n, tc.rows, true, false)

			// R-only: two passes, the same R bit for bit.
			resR, _ := factorize(t, a, false, Options{PanelRows: tc.rows})
			if resR.ReadPasses != 2 || !resR.R.Equal(res.R) {
				t.Errorf("R-only run: ReadPasses=%d, R equal=%v", resR.ReadPasses, resR.R.Equal(res.R))
			}
			checkModel(t, resR, tc.m, tc.n, tc.rows, false, false)
		})
	}
}

// The driver is the third adapter under core.Ladder (internal/core's
// TestLadderAcrossAdapters covers the other two): over panels of m/4
// rows, the two ladders it runs must give the R of the same ladder on
// the resident matrix, the ‖G−I‖_F that ladder measures, and — R only —
// exactly the model's flops.
func TestStreamingLadderMatchesResident(t *testing.T) {
	const m, n = 256, 16
	a := lin.RandomMatrix(m, n, 31)
	for _, shifted := range []bool{false, true} {
		res, _ := factorize(t, a, false, Options{PanelRows: m / 4, Workers: 1, Shifted: shifted})
		checkModel(t, res, m, n, m/4, false, shifted)

		// The resident ladder, and the iterate that enters its final
		// pass: A·R⁻¹ with the R of the passes before it.
		seq, before := core.CholeskyQR2, core.CholeskyQR
		if shifted {
			seq = core.ShiftedCQR3
			before = func(a *lin.Matrix, w int) (*lin.Matrix, *lin.Matrix, error) {
				q1, _, err := core.ShiftedCholeskyQR(a, w)
				if err != nil {
					return nil, nil, err
				}
				return core.CholeskyQR(q1, w)
			}
		}
		_, r, err := seq(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tol := 1e-12 * lin.FrobeniusNorm(r); !res.R.EqualWithin(r, tol) {
			t.Errorf("shifted=%v: streamed R differs from the resident ladder's beyond %g", shifted, tol)
		}
		x, _, err := before(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lin.SyrkNew(x)
		for i := 0; i < n; i++ {
			g.Set(i, i, g.At(i, i)-1)
		}
		if want := lin.FrobeniusNorm(g); math.Abs(res.Pass1Orth-want) > 1e-10 {
			t.Errorf("shifted=%v: Pass1Orth = %g, resident iterate measures %g", shifted, res.Pass1Orth, want)
		}
	}
}

// κ-sweep with the hint the public API derives from CondEst: moderately
// conditioned inputs stream through plain CholeskyQR2; beyond its regime
// the forced shifted ladder must deliver an orthonormal Q with a small
// residual, at exactly the shifted model's cost.
func TestStreamingCondSweep(t *testing.T) {
	m, n, rows := 600, 12, 150
	for _, cond := range []float64{1e2, 1e6, 1e9, 1e12} {
		a := lin.RandomWithCond(m, n, cond, 3)
		forceShift := plan.CQR2Breaks(cond)
		res, q := factorize(t, a, true, Options{PanelRows: rows, Shifted: forceShift})
		if res.Shifted != forceShift {
			t.Errorf("cond=%g: Shifted = %v, want %v", cond, res.Shifted, forceShift)
		}
		checkModel(t, res, m, n, rows, true, forceShift)
		if d := orthErr(q); d > 1e-12 {
			t.Errorf("cond=%g: streamed Q orthogonality error %g", cond, d)
		}
		qr := lin.MatMul(q, res.R)
		if d := maxDiff(qr, a); d > 1e-11 {
			t.Errorf("cond=%g: ‖A − QR‖ = %g", cond, d)
		}
		resR, _ := factorize(t, a, false, Options{PanelRows: rows, Shifted: forceShift})
		checkModel(t, resR, m, n, rows, false, forceShift)
	}
}

// Without any hint the driver must notice ill-conditioning by itself —
// a Gram matrix that will not factor, or a measured ‖Q₁ᵀQ₁−I‖_F ≥ ½ —
// and escalate to the shifted ladder instead of returning a bad Q. The
// sweep crosses the CholeskyQR2 boundary so that both triggers occur.
func TestStreamingEscalatesUnhinted(t *testing.T) {
	m, n, rows := 600, 12, 150
	escalated, measured := 0, 0
	for _, cond := range []float64{1e6, 1e7, 1e8, 2.2e8, 2.5e8, 2.8e8, 1e9, 1e10} {
		a := lin.RandomWithCond(m, n, cond, 3)
		res, q := factorize(t, a, true, Options{PanelRows: rows})
		if d := orthErr(q); d > 1e-12 {
			t.Errorf("cond=%g: Q orthogonality error %g (Shifted=%v, Pass1Orth=%g)", cond, d, res.Shifted, res.Pass1Orth)
		}
		if d := maxDiff(lin.MatMul(q, res.R), a); d > 1e-11 {
			t.Errorf("cond=%g: ‖A − QR‖ = %g", cond, d)
		}
		want := 3
		if res.Shifted {
			escalated++
			want = 4 // Cholesky of G₁ failed: no pass was wasted
			if res.ReadPasses == 5 {
				measured++
				want = 5 // pass 2 ran, measured a bad Q₁, and was redone
			}
		}
		if res.ReadPasses != want {
			t.Errorf("cond=%g: ReadPasses = %d (Shifted=%v)", cond, res.ReadPasses, res.Shifted)
		}
		t.Logf("cond=%g: shifted=%v passes=%d pass1orth=%.3g", cond, res.Shifted, res.ReadPasses, res.Pass1Orth)
	}
	a := lin.RandomWithCond(m, n, 1e9, 3)
	if res, _ := factorize(t, a, false, Options{PanelRows: rows}); !res.Shifted {
		t.Error("κ=1e9 without a hint did not report its escalation")
	}
	if escalated == 0 || measured == 0 {
		t.Errorf("%d inputs escalated, %d of them on the measured ‖Q₁ᵀQ₁−I‖: want both triggers exercised", escalated, measured)
	}
}

// The whole point of streaming: resident memory stays within the
// modeled footprint — three panels' worth plus O(n²) — with no term in m:
// the accountant's peak is identical at m and 4m.
func TestStreamingResidentMemoryBounded(t *testing.T) {
	n, rows := 32, 256
	var peaks []int64
	for _, m := range []int{4096, 4 * 4096} {
		a := lin.RandomMatrix(m, n, 5)
		for _, shifted := range []bool{false, true} {
			res, _ := factorize(t, a, true, Options{PanelRows: rows, Shifted: shifted})
			budget, err := costmodel.StreamCQR2Memory(m, n, rows)
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxResidentWords > budget {
				t.Errorf("m=%d shifted=%v: resident %d words exceeds modeled %d", m, shifted, res.MaxResidentWords, budget)
			}
			if full := int64(m) * int64(n); res.MaxResidentWords >= full {
				t.Errorf("resident %d words not below in-core %d — streaming bought nothing", res.MaxResidentWords, full)
			}
			peaks = append(peaks, res.MaxResidentWords)
		}
	}
	if peaks[0] != peaks[2] || peaks[1] != peaks[3] {
		t.Errorf("resident words depend on m: %v", peaks)
	}
}

// Workers only changes how lin's kernels split their rows, so R and Q
// are bitwise identical for any value.
func TestStreamingWorkersBitwise(t *testing.T) {
	a := lin.RandomMatrix(1500, 24, 17)
	res1, q1 := factorize(t, a, true, Options{PanelRows: 400, Workers: 1})
	res4, q4 := factorize(t, a, true, Options{PanelRows: 400, Workers: 4})
	if !res1.R.Equal(res4.R) || !q1.Equal(q4) {
		t.Error("Workers=1 and Workers=4 differ bitwise")
	}
}

// serialCQR2 is the reference the read-ahead driver must match bit for
// bit: the same kernel calls on the same panels, on one goroutine, with
// no prefetching.
func serialCQR2(a *lin.Matrix, rows int) (r, q *lin.Matrix) {
	m, n := a.Rows, a.Cols
	panels := func(ys []*lin.Matrix, use func(lo int, p *lin.Matrix)) {
		for lo := 0; lo < m; lo += rows {
			p := a.View(lo, 0, min(rows, m-lo), n).Clone()
			for _, y := range ys {
				lin.Trmm(lin.Right, lin.Lower, true, y, p)
			}
			use(lo, p)
		}
	}
	var ys []*lin.Matrix
	for pass := 0; pass < 2; pass++ {
		g := lin.NewMatrix(n, n)
		panels(ys, func(_ int, p *lin.Matrix) { lin.Syrk(1, p, 1, g) })
		l, y, err := lin.CholInv(g)
		if err != nil {
			panic(err)
		}
		ys = append(ys, y)
		ri := l.T()
		if r != nil {
			lin.Trmm(lin.Right, lin.Upper, false, r, ri)
		}
		r = ri
	}
	q = lin.NewMatrix(m, n)
	panels(ys, func(lo int, p *lin.Matrix) { q.View(lo, 0, p.Rows, n).CopyFrom(p) })
	return r, q
}

// Reading ahead changes when a panel is read, never what is computed
// from it: dense, file and generator sources all reproduce the serial
// scan bitwise.
func TestReadAheadMatchesSerialScan(t *testing.T) {
	const m, n, rows = 1100, 12, 256 // five panels, a short tail
	a := lin.RandomMatrix(m, n, 42)
	rRef, qRef := serialCQR2(a, rows)
	path := filepath.Join(t.TempDir(), "a.mat")
	if err := WriteFile(path, NewDenseSource(a), 300); err != nil {
		t.Fatal(err)
	}
	file, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	gen, err := NewGenSource(m, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{NewDenseSource(a), file, gen} {
		snk := NewDenseSink(m, n)
		res, err := Factorize(src, snk, Options{PanelRows: rows})
		if err != nil {
			t.Fatalf("%T: %v", src, err)
		}
		if !res.R.Equal(rRef) || !snk.Matrix().Equal(qRef) {
			t.Errorf("%T: read-ahead run differs bitwise from the serial scan", src)
		}
	}
}

// slowSource makes Next slow enough that a consumer abandoning the scan
// finds the reader mid-call.
type slowSource struct{ Source }

func (s slowSource) Next(max int) (*lin.Matrix, error) {
	time.Sleep(time.Millisecond)
	return s.Source.Next(max)
}

// The reader goroutine never outlives its scan: close returns only
// after it has exited, whether the consumer drained the source, walked
// away in the middle, or the source failed — and the source is then
// free for the next pass (under -race, a reader still inside Next would
// collide with the Reset that follows). Every early exit runs twice:
// once with a slow Next, once with two inverses and a fast source, so
// the consumer that walks away finds the reader inside a TRMM.
func TestReadAheadStopsOnEveryPath(t *testing.T) {
	const m, n, rows = 640, 32, 64
	a := lin.RandomMatrix(m, n, 1)
	bufs := [2]*lin.Matrix{lin.NewMatrix(rows, n), lin.NewMatrix(rows, n)}
	var ys []*lin.Matrix
	for seed := int64(2); seed <= 3; seed++ {
		_, y, err := lin.CholInv(lin.SyrkNew(lin.RandomMatrix(2*n, n, seed)))
		if err != nil {
			t.Fatal(err)
		}
		ys = append(ys, y)
	}

	for _, run := range []struct {
		name string
		src  Source
		ys   []*lin.Matrix
	}{
		{"slow Next", slowSource{NewDenseSource(a)}, nil},
		{"two inverses", NewDenseSource(a), ys},
	} {
		for _, take := range []int{0, 1, 3, m / rows, m/rows + 2} {
			if err := run.src.Reset(); err != nil {
				t.Fatal(err)
			}
			ra := startReadAhead(run.src, bufs, rows, run.ys, 2)
			row := 0
			for i := 0; i < take; i++ {
				p, err := ra.next()
				if row == m {
					if err != io.EOF {
						t.Fatalf("%s, take %d: past the end: err = %v, want io.EOF", run.name, take, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s, take %d: panel %d: %v", run.name, take, i, err)
				}
				want := a.View(row, 0, p.Rows, n).Clone()
				for _, y := range run.ys {
					lin.Trmm(lin.Right, lin.Lower, true, y, want)
				}
				if !p.Equal(want) {
					t.Fatalf("%s, take %d: panel %d is not rows %d..%d times every Yᵀ", run.name, take, i, row, row+p.Rows)
				}
				p.Zero() // the panel is the consumer's to overwrite
				row += p.Rows
			}
			ra.close()
		}
	}

	// A failing source: the panels before the failure arrive, then the
	// error, then EOF.
	trunc := filepath.Join(t.TempDir(), "a.mat")
	if err := WriteFile(trunc, NewDenseSource(a), rows); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(trunc)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := os.Truncate(trunc, headerSize+8*n*100); err != nil {
		t.Fatal(err)
	}
	ra := startReadAhead(fs, bufs, rows, nil, 0)
	defer ra.close()
	if _, err := ra.next(); err != nil {
		t.Fatalf("first panel: %v", err)
	}
	if _, err := ra.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("second panel: err = %v, want unexpected EOF", err)
	}
	if _, err := ra.next(); err != io.EOF {
		t.Fatalf("after the failure: err = %v, want io.EOF", err)
	}
}

// truncatingSource shrinks its file just before the chosen pass starts
// (Reset k is the start of pass k).
type truncatingSource struct {
	*FileSource
	path   string
	size   int64
	atPass int
	resets int
}

func (s *truncatingSource) Reset() error {
	s.resets++
	if s.resets == s.atPass {
		if err := os.Truncate(s.path, s.size); err != nil {
			return err
		}
	}
	return s.FileSource.Reset()
}

// A file that loses its tail mid-run — in pass 1, 2 or 3 — must fail
// with an error naming the rows that could not be read, and the sink
// must never be left looking complete.
func TestTruncatedFileFailsEveryPass(t *testing.T) {
	m, n, rows := 700, 8, 160
	a := lin.RandomMatrix(m, n, 9)
	for pass := 1; pass <= 3; pass++ {
		dir := t.TempDir()
		aPath := filepath.Join(dir, "a.mat")
		if err := WriteFile(aPath, NewDenseSource(a), rows); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFile(aPath)
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the third panel (rows 320..480).
		src := &truncatingSource{FileSource: fs, path: aPath, size: headerSize + 8*int64(n)*400, atPass: pass}
		snk, err := CreateFile(filepath.Join(dir, "q.mat"), m, n)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Factorize(src, snk, Options{PanelRows: rows})
		fs.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "rows 320..480") ||
			!strings.Contains(err.Error(), fmt.Sprintf("pass %d", pass)) {
			t.Errorf("truncated in pass %d: err = %v, want unexpected EOF naming pass %d and rows 320..480", pass, err, pass)
		}
		if err := snk.Close(); err == nil {
			t.Errorf("truncated in pass %d: sink closed cleanly with a short Q", pass)
		}
	}
}

// File round-trip: spill a matrix to the binary panel format, stream
// the factorization from disk with Q written to a file sink, and check
// the on-disk Q against the in-core factorization.
func TestFileSourceSinkRoundTrip(t *testing.T) {
	m, n, rows := 700, 24, 160
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.mat")
	qPath := filepath.Join(dir, "q.mat")
	a := lin.RandomMatrix(m, n, 9)
	if err := WriteFile(aPath, NewDenseSource(a), rows); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	src, err := OpenFile(aPath)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer src.Close()
	if gm, gn := src.Dims(); gm != m || gn != n {
		t.Fatalf("file dims %dx%d, want %dx%d", gm, gn, m, n)
	}
	snk, err := CreateFile(qPath, m, n)
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	res, err := Factorize(src, snk, Options{PanelRows: rows})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if err := snk.Close(); err != nil {
		t.Fatalf("sink close: %v", err)
	}
	_, rRef, err := core.CholeskyQR2(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.R, rRef); d > 1e-13*float64(m) {
		t.Errorf("R mismatch through files: %g", d)
	}
	// Read the streamed Q back and verify it reconstructs A.
	qsrc, err := OpenFile(qPath)
	if err != nil {
		t.Fatalf("reopen Q: %v", err)
	}
	defer qsrc.Close()
	q := lin.NewMatrix(m, n)
	row := 0
	for {
		p, err := qsrc.Next(rows)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		q.View(row, 0, p.Rows, n).CopyFrom(p)
		row += p.Rows
	}
	if row != m {
		t.Fatalf("Q file has %d rows, want %d", row, m)
	}
	qr := lin.MatMul(q, res.R)
	if d := maxDiff(qr, a); d > 1e-12*float64(n) {
		t.Errorf("on-disk Q: ‖A − QR‖ = %g", d)
	}
}

// GenSource must replay lin.RandomMatrix's sequence bitwise, panel by
// panel, across Reset.
func TestGenSourceMatchesRandomMatrix(t *testing.T) {
	m, n := 333, 7
	want := lin.RandomMatrix(m, n, 42)
	src, err := NewGenSource(m, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got := lin.NewMatrix(m, n)
		row := 0
		for {
			p, err := src.Next(50)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got.View(row, 0, p.Rows, n).CopyFrom(p)
			row += p.Rows
		}
		if row != m {
			t.Fatalf("pass %d: %d rows, want %d", pass, row, m)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("pass %d: entry %d differs: %g vs %g", pass, i, got.Data[i], want.Data[i])
			}
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// Bad inputs fail loudly rather than silently truncating.
func TestStreamingErrors(t *testing.T) {
	a := lin.RandomMatrix(64, 8, 1)
	if _, err := Factorize(NewDenseSource(a), nil, Options{PanelRows: 4}); err == nil {
		t.Error("panel rows < n accepted")
	}
	wide := lin.RandomMatrix(4, 8, 1)
	if _, err := Factorize(NewDenseSource(wide), nil, Options{PanelRows: 8}); err == nil {
		t.Error("m < n accepted")
	}
	if _, err := costmodel.StreamCQR2(64, 8, 4, false, false); err == nil {
		t.Error("model accepted panel rows < n")
	}
	if _, err := costmodel.StreamCQR2Memory(4, 8, 8); err == nil {
		t.Error("memory model accepted m < n")
	}
}
