package cacqr

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"cacqr/internal/lin"
	"cacqr/internal/stream"
)

func maxDenseDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	return maxAbsDiff(a.Data, b.Data)
}

// Public-API acceptance: streaming a matrix through the out-of-core
// path must reproduce the in-core CholeskyQR2 factors while holding far
// less than the full matrix resident.
func TestFactorizeStreamingMatchesInCore(t *testing.T) {
	const m, n = 4096, 32
	a := RandomMatrix(m, n, 21)
	qRef, rRef, err := CholeskyQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	sink := SinkToDense()
	before := append([]float64(nil), a.Data...)
	res, err := FactorizeStreaming(SourceFromDense(a), sink, Options{PanelRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	// SourceFromDense hands out views of a, not a copy: the run must
	// leave every bit of it alone.
	if maxAbsDiff(a.Data, before) > 0 {
		t.Error("FactorizeStreaming wrote into the matrix behind SourceFromDense")
	}
	if d := maxDenseDiff(res.R, rRef); d > 1e-13*float64(m) {
		t.Errorf("R mismatch: %g", d)
	}
	if d := maxDenseDiff(res.Q, qRef); d > 1e-12 {
		t.Errorf("Q mismatch: %g", d)
	}
	if res.Stream == nil {
		t.Fatal("no stream accounting on a streamed run")
	}
	if res.Stream.Panels != m/512 {
		t.Errorf("Panels = %d, want %d", res.Stream.Panels, m/512)
	}
	if st := res.Stream; st.Shifted || st.ReadPasses != 3 || !(st.Pass1Orth < 1e-10) {
		t.Errorf("well-conditioned run reports Shifted=%v ReadPasses=%d Pass1Orth=%g", st.Shifted, st.ReadPasses, st.Pass1Orth)
	}
	if want, err := ModelStreamCQR2(m, n, 512, true, false); err != nil || res.Stats.Flops != want.Flops ||
		res.Stats.Bytes != want.IOBytes {
		t.Errorf("measured flops %d / bytes %d, model %+v (err %v)", res.Stats.Flops, res.Stats.Bytes, want, err)
	}
	full := int64(8 * m * n)
	if res.Stream.MaxResidentBytes >= full {
		t.Errorf("resident %d B ≥ full matrix %d B — streaming bought nothing",
			res.Stream.MaxResidentBytes, full)
	}
	if want, err := ModelStreamCQR2Memory(m, n, 512); err != nil || res.Stream.MaxResidentBytes > want {
		t.Errorf("resident %d B exceeds modeled %d B (err %v)", res.Stream.MaxResidentBytes, want, err)
	}
}

// A generator source streams the same deterministic matrix RandomMatrix
// materializes — so factoring one must give the same R without the
// matrix ever existing in memory.
func TestFactorizeStreamingFromGenerator(t *testing.T) {
	const m, n = 3000, 24
	src, err := SourceFromGenerator(m, n, 77)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FactorizeStreaming(src, nil, Options{PanelRows: 700})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q != nil {
		t.Error("R-only run returned a Q")
	}
	_, rRef, err := CholeskyQR2(RandomMatrix(m, n, 77))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDenseDiff(res.R, rRef); d > 1e-13*float64(m) {
		t.Errorf("R mismatch vs materialized generator: %g", d)
	}
}

// File-backed round trip through the public wrappers.
func TestStreamingFileRoundTrip(t *testing.T) {
	const m, n = 1500, 16
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.mat")
	a := RandomMatrix(m, n, 5)
	if err := WriteMatrixFile(aPath, SourceFromDense(a), 400); err != nil {
		t.Fatal(err)
	}
	src, err := SourceFromFile(aPath)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sink := SinkToDense()
	res, err := FactorizeStreaming(src, sink, Options{PanelRows: 400})
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthogonalityError(res.Q); e > 1e-13 {
		t.Errorf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-14 {
		t.Errorf("residual %g", e)
	}
}

// Every source kind can feed more than one factorization: the driver
// rewinds at entry, so a second run on the same MatrixSource sees the
// same matrix and returns the same R bit for bit.
func TestStreamingSourceReusable(t *testing.T) {
	const m, n = 900, 12
	a := RandomMatrix(m, n, 31)
	aPath := filepath.Join(t.TempDir(), "a.mat")
	if err := WriteMatrixFile(aPath, SourceFromDense(a), 0); err != nil {
		t.Fatal(err)
	}
	file, err := SourceFromFile(aPath)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	gen, err := SourceFromGenerator(m, n, 31)
	if err != nil {
		t.Fatal(err)
	}
	var first *Dense
	for i, src := range []*MatrixSource{SourceFromDense(a), file, gen} {
		for run := 0; run < 2; run++ {
			res, err := FactorizeStreaming(src, SinkToDense(), Options{PanelRows: 250})
			if err != nil {
				t.Fatalf("source %d, run %d: %v", i, run, err)
			}
			if first == nil {
				first = res.R
			}
			// All three sources hold the same matrix (the generator replays
			// RandomMatrix), so every run of every kind agrees bitwise.
			if !slices.Equal(res.R.Data, first.Data) {
				t.Errorf("source %d, run %d: R differs from the first run", i, run)
			}
		}
	}
}

// failingSource yields a dense matrix but fails the read that starts at
// row failRow of pass failPass (Reset k starts pass k).
type failingSource struct {
	stream.Source
	failPass, failRow int
	pass, row         int
}

var errInjected = errors.New("injected read failure")

func (s *failingSource) Reset() error {
	s.pass++
	s.row = 0
	return s.Source.Reset()
}

func (s *failingSource) NextInto(dst *lin.Matrix) (*lin.Matrix, error) {
	if s.pass == s.failPass && s.row >= s.failRow {
		return nil, errInjected
	}
	p, err := s.Source.NextInto(dst)
	if err == nil {
		s.row += p.Rows
	}
	return p, err
}

// A run that fails after the file sink was opened — here in the middle
// of the Q pass, with half of Q already written — must close the file
// and remove it, and leave the MatrixSink usable for the next run.
func TestStreamingFileSinkRemovedOnError(t *testing.T) {
	const m, n = 800, 8
	a := RandomMatrix(m, n, 3)
	qPath := filepath.Join(t.TempDir(), "q.mat")
	sink := SinkToFile(qPath)
	for pass := 1; pass <= 3; pass++ {
		bad := &MatrixSource{src: &failingSource{Source: stream.NewDenseSource(a.view()), failPass: pass, failRow: 400}}
		if _, err := FactorizeStreaming(bad, sink, Options{PanelRows: 200}); !errors.Is(err, errInjected) {
			t.Fatalf("pass %d: err = %v, want the injected failure", pass, err)
		}
		if _, err := os.Stat(qPath); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("pass %d: partial Q file left behind (stat err %v)", pass, err)
		}
		if sink.file != nil {
			t.Fatalf("pass %d: file sink still open after a failed run", pass)
		}
	}
	res, err := FactorizeStreaming(SourceFromDense(a), sink, Options{PanelRows: 200})
	if err != nil {
		t.Fatalf("second run on the same sink: %v", err)
	}
	qsrc, err := SourceFromFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	defer qsrc.Close()
	ql, err := resident(&runSource{Source: qsrc.src, ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	q := fromLin(ql)
	if e := OrthogonalityError(q); e > 1e-13 {
		t.Errorf("orthogonality of the rewritten Q file %g", e)
	}
	if e := ResidualNorm(a, q, res.R); e > 1e-14 {
		t.Errorf("residual of the rewritten Q file %g", e)
	}
}

// A source file truncated under the run surfaces io.ErrUnexpectedEOF
// with the rows named — and never a short Q file.
func TestStreamingTruncatedFile(t *testing.T) {
	const m, n = 600, 8
	dir := t.TempDir()
	aPath, qPath := filepath.Join(dir, "a.mat"), filepath.Join(dir, "q.mat")
	if err := WriteMatrixFile(aPath, SourceFromDense(RandomMatrix(m, n, 4)), 0); err != nil {
		t.Fatal(err)
	}
	src, err := SourceFromFile(aPath)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := os.Truncate(aPath, 24+8*n*250); err != nil {
		t.Fatal(err)
	}
	_, err = FactorizeStreaming(src, SinkToFile(qPath), Options{PanelRows: 100})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if _, err := os.Stat(qPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Q file exists after a truncated read (stat err %v)", err)
	}
}

// An ill-conditioned input without a CondEst hint must not come back
// with a bad Q: the driver escalates and says so.
func TestStreamingEscalationReported(t *testing.T) {
	const m, n = 1200, 16
	a := RandomWithCond(m, n, 1e9, 8)
	res, err := FactorizeStreaming(SourceFromDense(a), SinkToDense(), Options{PanelRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stream; !st.Shifted || st.ReadPasses < 4 || !(st.Pass1Orth < 0.5) {
		t.Errorf("κ=1e9 un-hinted: Shifted=%v ReadPasses=%d Pass1Orth=%g", st.Shifted, st.ReadPasses, st.Pass1Orth)
	}
	if e := OrthogonalityError(res.Q); e > 1e-12 {
		t.Errorf("orthogonality %g", e)
	}
	if e := ResidualNorm(a, res.Q, res.R); e > 1e-11 {
		t.Errorf("residual %g", e)
	}
	// With the hint the shifted ladder runs from the start: same passes
	// as an escalation on a failed Cholesky, none wasted.
	hinted, err := FactorizeStreaming(SourceFromDense(a), nil, Options{PanelRows: 300, CondEst: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if st := hinted.Stream; !st.Shifted || st.ReadPasses != 3 {
		t.Errorf("κ=1e9 hinted, R only: Shifted=%v ReadPasses=%d, want true/3", st.Shifted, st.ReadPasses)
	}
}

// The routing acceptance: AutoFactorize must go out-of-core exactly
// when the memory budget rejects every in-core variant — the choice is
// a pure function of MemBudget.
func TestAutoFactorizeStreamRouting(t *testing.T) {
	const m, n = 8192, 32
	a := RandomMatrix(m, n, 13)

	// No budget: in-core, no stream accounting.
	res, err := AutoFactorize(a, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant == VariantStreamCQR2 || res.Stream != nil {
		t.Fatalf("streamed with no memory pressure: %v", res.Plan)
	}

	// Find the smallest in-core footprint the planner knows for this
	// shape, then budget below it.
	plans, err := PlanGrid(m, n, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	minInCore := plans[0].MemBytes()
	for _, p := range plans {
		if p.MemBytes() < minInCore {
			minInCore = p.MemBytes()
		}
	}
	budget := minInCore / 2
	res, err = AutoFactorize(a, 1, Options{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantStreamCQR2 {
		t.Fatalf("plan under budget %d = %v, want stream-cqr2", budget, res.Plan)
	}
	if res.Stream == nil {
		t.Fatal("streamed run carries no stream accounting")
	}
	if res.Stream.MaxResidentBytes > budget {
		t.Errorf("execution resident %d B broke the %d B budget the planner promised",
			res.Stream.MaxResidentBytes, budget)
	}
	_, rRef, err := CholeskyQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDenseDiff(res.R, rRef); d > 1e-13*float64(m) {
		t.Errorf("streamed R mismatch: %g", d)
	}
	if e := OrthogonalityError(res.Q); e > 1e-13 {
		t.Errorf("streamed Q orthogonality %g", e)
	}
}

// Server routing: SubmitStream under a tight budget streams (plan row,
// stream accounting, cache reuse); without any budget it materializes
// and runs in core.
func TestServerSubmitStream(t *testing.T) {
	const m, n = 8192, 32
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plans, err := PlanGrid(m, n, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := plans[0].MemBytes()
	for _, p := range plans {
		if p.MemBytes() < budget {
			budget = p.MemBytes()
		}
	}
	budget /= 2

	mkSrc := func() *MatrixSource {
		src, err := SourceFromGenerator(m, n, 99)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	sink := SinkToDense()
	res, err := srv.SubmitStream(StreamRequest{Source: mkSrc(), Sink: sink, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant != VariantStreamCQR2 {
		t.Fatalf("plan = %v, want stream-cqr2", res.Plan)
	}
	if res.Stream == nil || res.Stream.MaxResidentBytes > budget {
		t.Fatalf("stream accounting missing or over budget: %+v", res.Stream)
	}
	q, err := sink.Dense()
	if err != nil {
		t.Fatal(err)
	}
	aRef := RandomMatrix(m, n, 99)
	if e := ResidualNorm(aRef, q, res.R); e > 1e-13 {
		t.Errorf("residual %g", e)
	}
	if res.Q == nil {
		t.Error("dense-sink SubmitStream did not surface Q")
	}

	// Same key again: the plan must come from the cache.
	res2, err := srv.SubmitStream(StreamRequest{Source: mkSrc(), MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCacheHit {
		t.Error("second same-key stream request missed the plan cache")
	}
	if res2.Q != nil {
		t.Error("sink-less stream request returned a Q")
	}

	// No budget anywhere: the source fits, so it is materialized and
	// factored in core.
	res3, err := srv.SubmitStream(StreamRequest{Source: mkSrc()})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Plan.Variant == VariantStreamCQR2 || res3.Stream != nil {
		t.Fatalf("no-budget SubmitStream streamed anyway: %v", res3.Plan)
	}
	_, rRef, err := CholeskyQR2(aRef)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDenseDiff(res3.R, rRef); d > 1e-13*float64(m) {
		t.Errorf("materialized R mismatch: %g", d)
	}
	// One executor: a source whose plan is in-core runs exactly what
	// Submit runs on the same matrix held in memory — same plan, same
	// bits, same counted cost — and a file sink receives that same Q.
	qPath := filepath.Join(t.TempDir(), "q.mat")
	res4, err := srv.SubmitStream(StreamRequest{Source: mkSrc(), Sink: SinkToFile(qPath)})
	if err != nil {
		t.Fatal(err)
	}
	inCore, err := srv.Submit(SubmitRequest{A: aRef, Procs: 1, CondEst: 1})
	if err != nil {
		t.Fatal(err)
	}
	qsrc, err := SourceFromFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	defer qsrc.Close()
	qFile, err := resident(&runSource{Source: qsrc.src, ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*SubmitResult{res3, res4} {
		if got.Plan.Variant != inCore.Plan.Variant || got.Stats != inCore.Stats ||
			maxDenseDiff(got.Q, inCore.Q) > 0 || maxDenseDiff(got.R, inCore.R) > 0 {
			t.Errorf("source-backed in-core run (%v, %+v) differs from Submit on the same matrix (%v, %+v)",
				got.Plan, got.Stats, inCore.Plan, inCore.Stats)
		}
	}
	if maxDenseDiff(fromLin(qFile), inCore.Q) > 0 {
		t.Error("Q written to the file sink differs from the resident Q")
	}
}

// cancelingSource cancels its request's context on its second NextInto and
// records whether a scan ever reached the end of the matrix.
type cancelingSource struct {
	stream.Source
	cancel    context.CancelFunc
	nexts     atomic.Int32
	exhausted atomic.Bool
}

func (s *cancelingSource) NextInto(dst *lin.Matrix) (*lin.Matrix, error) {
	if s.nexts.Add(1) == 2 {
		s.cancel()
	}
	p, err := s.Source.NextInto(dst)
	if err == io.EOF {
		s.exhausted.Store(true)
	}
	return p, err
}

// A cancelled SubmitStreamCtx stops reading its source at the next panel
// — streamed out of core or drained into memory for an in-core plan —
// and gives back its rank token and pending slot.
func TestSubmitStreamCtxStopsOnCancel(t *testing.T) {
	const m, n = 8192, 32
	for _, c := range []struct {
		name   string
		budget int64
	}{
		{"streamed", 8 * m * n / 4},
		{"resident", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := NewServer(ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			gen, err := SourceFromGenerator(m, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &cancelingSource{Source: gen.src, cancel: cancel}
			_, err = srv.SubmitStreamCtx(ctx, StreamRequest{Source: &MatrixSource{src: src}, MemBudget: c.budget})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
			}
			if src.exhausted.Load() {
				t.Errorf("the run read its source to the end after %d Next calls", src.nexts.Load())
			}
			if st := srv.Stats(); st.InFlightRanks != 0 || st.Pending != 0 {
				t.Errorf("after the cancelled request: %d ranks in flight, %d pending", st.InFlightRanks, st.Pending)
			}
		})
	}
}

// A traced streamed request shows where its time and bytes went: the
// stream stage carries the run's verdict, and one child span per pass
// carries that pass's bytes and flops, which add up to the totals.
func TestTracedStreamHasPassSpans(t *testing.T) {
	const m, n = 4096, 16
	tracer := NewTracer(TracerOptions{})
	srv, err := NewServer(ServerOptions{Options: Options{Tracer: tracer}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src, err := SourceFromGenerator(m, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.SubmitStream(StreamRequest{Source: src, Sink: SinkToDense(), MemBudget: 8 * m * n / 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream == nil {
		t.Fatalf("request did not stream: %v", res.Plan)
	}
	td, ok := tracer.Get(res.TraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	exec, ok := findChild(td.Root, "execute")
	if !ok {
		t.Fatalf("no execute stage: %v", names(td.Root.Children))
	}
	st, ok := findChild(exec, "stream")
	if !ok {
		t.Fatalf("no stream stage under execute: %v", names(exec.Children))
	}
	if attrInt(t, st, "read_passes") != 3 || st.Attrs["shifted"] != false {
		t.Errorf("stream stage attrs = %v", st.Attrs)
	}
	if got := names(st.Children); len(got) != 3 || got[0] != "gram-pass" || got[1] != "gram-pass" || got[2] != "q-pass" {
		t.Fatalf("pass spans = %v, want gram-pass, gram-pass, q-pass", got)
	}
	var read, written, flops int64
	for i, c := range st.Children {
		if attrInt(t, c, "pass") != int64(i+1) || attrInt(t, c, "read_bytes") != 8*m*n {
			t.Errorf("pass span %d attrs = %v", i, c.Attrs)
		}
		read += attrInt(t, c, "read_bytes")
		written += attrInt(t, c, "written_bytes")
		flops += attrInt(t, c, "flops")
	}
	// Only the two n×n CholInv/fold steps between the passes are outside
	// the pass spans.
	if read != res.Stream.ReadBytes || written != res.Stream.WrittenBytes || flops > res.Stats.Flops ||
		res.Stats.Flops-flops > 3*n*n*n {
		t.Errorf("pass spans sum to %d B read, %d B written, %d flops; run reports %d, %d, %d",
			read, written, flops, res.Stream.ReadBytes, res.Stream.WrittenBytes, res.Stats.Flops)
	}
}

// dirNames lists dir, so a test can tell that a run left no temporary
// file beside the path it wrote.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// readBytes returns the contents of path.
func readBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Factoring a file into its own path replaces it with Q: every pass
// reads the input, which stays at the path until the Q is complete, and
// the file left there is bitwise the Q a run into a separate path
// writes.
func TestStreamingIntoItsOwnInputFile(t *testing.T) {
	const m, n, rows = 4096, 32, 512
	dir := t.TempDir()
	aPath, selfPath, qPath := filepath.Join(dir, "a.mat"), filepath.Join(dir, "self.mat"), filepath.Join(dir, "q.mat")
	a := RandomMatrix(m, n, 13)
	for _, p := range []string{aPath, selfPath} {
		if err := WriteMatrixFile(p, SourceFromDense(a), rows); err != nil {
			t.Fatal(err)
		}
	}

	factor := func(in, out string) *Result {
		src, err := SourceFromFile(in)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		res, err := FactorizeStreaming(src, SinkToFile(out), Options{PanelRows: rows})
		if err != nil {
			t.Fatalf("%s into %s: %v", filepath.Base(in), filepath.Base(out), err)
		}
		return res
	}
	want, got := factor(aPath, qPath), factor(selfPath, selfPath)
	if !slices.Equal(got.R.Data, want.R.Data) || got.Stats != want.Stats {
		t.Error("the run into its own input differs from the run into a separate path")
	}
	if !slices.Equal(readBytes(t, selfPath), readBytes(t, qPath)) {
		t.Error("the file left at the input's path is not the Q a run into a separate path writes")
	}
}

// A run into its own input that is cancelled part-way — streamed under a
// tight budget, after the sink was opened — leaves the input bitwise
// intact and nothing beside it.
func TestStreamingIntoItsOwnInputFileKeepsItOnCancel(t *testing.T) {
	const m, n, rows = 4096, 32, 512
	dir := t.TempDir()
	selfPath := filepath.Join(dir, "self.mat")
	if err := WriteMatrixFile(selfPath, SourceFromDense(RandomMatrix(m, n, 13)), rows); err != nil {
		t.Fatal(err)
	}
	input := readBytes(t, selfPath)
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	file, err := SourceFromFile(selfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelingSource{Source: file.src, cancel: cancel}
	_, err = srv.SubmitStreamCtx(ctx, StreamRequest{Source: &MatrixSource{src: src}, Sink: SinkToFile(selfPath), MemBudget: 8 * m * n / 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if !slices.Equal(readBytes(t, selfPath), input) {
		t.Error("a cancelled run into its own input changed the input file")
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"self.mat"}) {
		t.Errorf("after the cancelled run the directory holds %v, want only self.mat", names)
	}
}

// A SinkToFile over an existing Q replaces it only with a complete new
// Q. A run that fails part-way or is cancelled leaves the old file
// bitwise intact and no temporary file beside it; a reader that opened
// the old Q before a successful rewrite reads the old Q to its end; the
// new file has the mode os.Create gives a new file; and a symlink at the
// path is followed, so it points at the new Q.
func TestStreamingSinkReplacesOnlyOnSuccess(t *testing.T) {
	const m, n, rows = 800, 8, 200
	dir := t.TempDir()
	qPath := filepath.Join(dir, "q.mat")
	a, b := RandomMatrix(m, n, 3), RandomMatrix(m, n, 4)
	if _, err := FactorizeStreaming(SourceFromDense(a), SinkToFile(qPath), Options{PanelRows: rows}); err != nil {
		t.Fatal(err)
	}
	old := readBytes(t, qPath)
	keptOld := func(what string) {
		t.Helper()
		if !slices.Equal(readBytes(t, qPath), old) {
			t.Errorf("%s: the old Q file changed", what)
		}
		if names := dirNames(t, dir); !slices.Equal(names, []string{"q.mat"}) {
			t.Errorf("%s: the directory holds %v, want only q.mat", what, names)
		}
	}

	for pass := 1; pass <= 3; pass++ {
		bad := &MatrixSource{src: &failingSource{Source: stream.NewDenseSource(b.view()), failPass: pass, failRow: 400}}
		if _, err := FactorizeStreaming(bad, SinkToFile(qPath), Options{PanelRows: rows}); !errors.Is(err, errInjected) {
			t.Fatalf("pass %d: err = %v, want the injected failure", pass, err)
		}
		keptOld("failed run")
	}

	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelling := &cancelingSource{Source: stream.NewDenseSource(b.view()), cancel: cancel}
	if _, err := srv.SubmitStreamCtx(ctx, StreamRequest{Source: &MatrixSource{src: cancelling}, Sink: SinkToFile(qPath), MemBudget: 8 * m * n / 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	keptOld("cancelled run")

	// A reader of the old Q, opened before the rewrite.
	reader, err := SourceFromFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	oldQ, err := resident(&runSource{Source: reader.src, ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FactorizeStreaming(SourceFromDense(b), SinkToFile(qPath), Options{PanelRows: rows}); err != nil {
		t.Fatal(err)
	}
	if again, err := resident(&runSource{Source: reader.src, ctx: context.Background()}); err != nil || !again.Equal(oldQ) {
		t.Errorf("a reader opened before the rewrite did not read the old Q to its end (err %v)", err)
	}
	newQ := readBytes(t, qPath)
	if slices.Equal(newQ, old) {
		t.Fatal("the successful run left the old Q in place")
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"q.mat"}) {
		t.Errorf("after the rewrite the directory holds %v, want only q.mat", names)
	}

	sibling := filepath.Join(dir, "sibling")
	f, err := os.Create(sibling)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	qSt, err := os.Stat(qPath)
	if err != nil {
		t.Fatal(err)
	}
	sibSt, err := os.Stat(sibling)
	if err != nil {
		t.Fatal(err)
	}
	if qSt.Mode() != sibSt.Mode() {
		t.Errorf("the new Q file has mode %v, os.Create gives %v", qSt.Mode(), sibSt.Mode())
	}
	if err := os.Remove(sibling); err != nil {
		t.Fatal(err)
	}

	// A symlink destination: the link stays, and points at the new Q.
	link := filepath.Join(dir, "link.mat")
	if err := os.Symlink("q.mat", link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if _, err := FactorizeStreaming(SourceFromDense(a), SinkToFile(link), Options{PanelRows: rows}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Lstat(link); err != nil || st.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the symlink was replaced (lstat %v, err %v)", st, err)
	}
	if !slices.Equal(readBytes(t, link), old) {
		t.Error("the symlink does not lead to the new Q")
	}
}
