package cacqr

import (
	"context"
	"fmt"

	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/plan"
	"cacqr/internal/stream"
)

// MatrixSource feeds a factorization row panels of an m×n matrix that
// need never be resident all at once — the input side of the
// out-of-core streamed CholeskyQR2. Build one with SourceFromDense,
// SourceFromFile, or SourceFromGenerator. A source is rewound at the
// start of every run, so one source can feed any number of
// factorizations.
type MatrixSource struct {
	src    stream.Source
	closer func() error
}

// Dims returns the full matrix shape (m, n).
func (s *MatrixSource) Dims() (m, n int) { return s.src.Dims() }

// Close releases any underlying file. Safe on sources with nothing to
// release.
func (s *MatrixSource) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer()
}

// SourceFromDense streams an in-memory matrix (not copied: a streamed
// run copies each panel out of a into its own buffer, and a resident run
// reads a in place; neither writes it) — mostly useful for testing the
// streaming path against in-core results.
func SourceFromDense(a *Dense) *MatrixSource {
	return &MatrixSource{src: stream.NewDenseSource(a.view())}
}

// SourceFromFile opens a matrix file written by SinkToFile (or
// WriteMatrixFile) as a panel source. Each streaming pass over the file
// is one sequential scan, read straight into the run's panel buffers.
// The source holds the file open: a SinkToFile that replaces the path
// meanwhile — even the one of the run reading it — leaves this source
// reading the old matrix to its end.
func SourceFromFile(path string) (*MatrixSource, error) {
	fs, err := stream.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &MatrixSource{src: fs, closer: fs.Close}, nil
}

// SourceFromGenerator streams the deterministic m×n test matrix that
// RandomMatrix(m, n, seed) would materialize — bitwise identical, but
// never resident: the source cacqrd uses to serve "gen" requests too
// big for its memory cap.
func SourceFromGenerator(m, n int, seed int64) (*MatrixSource, error) {
	gs, err := stream.NewGenSource(m, n, seed)
	if err != nil {
		return nil, err
	}
	return &MatrixSource{src: gs}, nil
}

// WriteMatrixFile spills a source to path in the streaming panel
// format, panelRows rows at a time (0 = a sensible default).
func WriteMatrixFile(path string, src *MatrixSource, panelRows int) error {
	if err := src.src.Reset(); err != nil {
		return err
	}
	return stream.WriteFile(path, src.src, panelRows)
}

// MatrixSink receives the explicit Q of a streaming factorization panel
// by panel. Build one with SinkToDense (assemble Q in memory) or
// SinkToFile (write Q to disk, never resident). A nil sink skips the Q
// pass entirely — the factorization then reads the source twice instead
// of three times and returns only R. A sink is bound afresh by every
// run, so it can be reused (a file sink replaces its path each time).
type MatrixSink struct {
	path string           // file sink destination; "" = dense
	q    *lin.Matrix      // dense sink: the Q of the last run
	file *stream.FileSink // file sink: open only while a run writes it
}

// SinkToDense assembles Q in memory; read it back with Dense after the
// factorization returns.
func SinkToDense() *MatrixSink { return &MatrixSink{} }

// SinkToFile streams Q to a matrix file at path, so even the output
// never needs m·n resident words. Q is written to a temporary file
// beside path and replaces path only once it is complete: when the run
// succeeds, path holds the new Q; when it fails, is cancelled or
// crashes, path holds whatever it held before, bitwise — nothing, if
// there was nothing — and no partial matrix is ever left that
// SourceFromFile accepts (a crash can leave a partial temporary file
// beside path, which it refuses). A reader that opened the old file
// keeps reading it, so the path may be the run's own input. A symlink
// is resolved, so it points at the new Q; other hard links keep the old
// matrix; the new file gets os.Create's mode. A path that is not a
// regular file (a FIFO, a device) is written directly and never
// removed. Nothing is synced to disk.
func SinkToFile(path string) *MatrixSink { return &MatrixSink{path: path} }

// Dense returns the assembled Q of a SinkToDense after a successful
// factorization.
func (s *MatrixSink) Dense() (*Dense, error) {
	if s.q == nil {
		return nil, fmt.Errorf("cacqr: sink holds no in-memory Q (use SinkToDense and run FactorizeStreaming first)")
	}
	return fromLin(s.q), nil
}

// open binds the sink to the run's shape and returns the internal sink.
func (s *MatrixSink) open(m, n int) (stream.Sink, error) {
	if s.path != "" {
		f, err := stream.CreateFile(s.path, m, n)
		if err != nil {
			return nil, err
		}
		s.file = f
		return f, nil
	}
	ds := stream.NewDenseSink(m, n)
	s.q = ds.Matrix()
	return ds, nil
}

// put delivers the resident Q of an in-core run: a dense sink adopts
// it, a file sink is written from Q's own memory — no copy of Q either
// way.
func (s *MatrixSink) put(q *lin.Matrix) error {
	if s.path == "" {
		s.q = q
		return nil
	}
	snk, err := s.open(q.Rows, q.Cols)
	if err != nil {
		return err
	}
	if err := snk.Append(q); err != nil {
		s.abort()
		return err
	}
	return s.finish()
}

// finish finalizes a file-backed sink: the row-count check, then the
// new file replaces the path (on failure the path keeps what it held).
func (s *MatrixSink) finish() error {
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}

// abort is finish for a failed run: a half-assembled dense Q is
// dropped, the file sink's temporary file closed and removed.
func (s *MatrixSink) abort() {
	s.q = nil
	if s.file != nil {
		s.file.Abort()
		s.file = nil
	}
}

// StreamInfo reports a streaming run's shape and resource accounting.
type StreamInfo struct {
	// Panels is how many row panels the source yielded; PanelRows is the
	// panel height used.
	Panels, PanelRows int
	// Shifted reports that the run took the shifted ladder (streamed
	// ShiftedCQR3) — forced by Options.CondEst or escalated to because a
	// Gram matrix would not factor or Pass1Orth came out ≥ ½.
	Shifted bool
	// ReadPasses counts scans of the source: 2 for R only, 3 with Q, one
	// more when Shifted, and one more again when the escalation was
	// discovered by measuring pass 1's Q.
	ReadPasses int
	// Pass1Orth is the measured ‖QᵀQ−I‖_F of the Q that entered the
	// final CholeskyQR pass, read off the Gram matrix that pass forms
	// anyway; below ½ the final pass is guaranteed to land at O(ε), and
	// no result is returned otherwise.
	Pass1Orth float64
	// MaxResidentBytes is the peak matrix memory the driver held at
	// once — two panels' worth plus O(n²), independent of m.
	MaxResidentBytes int64
	// ReadBytes and WrittenBytes are the streaming I/O volumes
	// (ReadPasses reads of the matrix; one write when Q is produced).
	ReadBytes, WrittenBytes int64
}

// DefaultPanelRows is the panel height FactorizeStreaming uses when
// Options.PanelRows is unset: max(4096, n), clamped to m.
const DefaultPanelRows = plan.DefaultPanelRows

// runSource is the source one run reads. NextInto fails with the
// context's error once the run's ctx is done, so a cancelled request
// stops scanning at its next panel and gives back its rank token and
// pending slot; span, set by a streamed run, hangs its stage span where
// stream.Factorize looks for it (obs.SpanCarrier).
type runSource struct {
	stream.Source
	ctx  context.Context
	span *obs.Span
}

func (s *runSource) NextInto(dst *lin.Matrix) (*lin.Matrix, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return s.Source.NextInto(dst)
}

func (s *runSource) TraceSpan() *obs.Span { return s.span }

// FactorizeStreaming factors the matrix behind src out of core with the
// paper's own algorithm — 1D-CholeskyQR2 whose Gram allreduce becomes a
// running sum over row panels of Options.PanelRows rows. Two sequential
// scans of src give R (accumulate AᵀA and factor it; accumulate the Gram
// matrix of Q₁ = A·R₁⁻¹ and factor that); when sink is non-nil a third
// scan writes the explicit Q into it, and Result.Q is populated only for
// a SinkToDense. The second Gram matrix measures pass 1's orthogonality
// for free (StreamInfo.Pass1Orth): an Options.CondEst beyond the CQR2
// regime, a Gram matrix that will not factor, or a measured deviation
// ≥ ½ send the run up one ladder to the streamed ShiftedCQR3 (one more
// scan) instead of returning a bad Q; ErrIllConditioned is returned when
// even that cannot certify the result. Each panel is read once, straight
// into one of the run's two panel buffers, so peak resident matrix
// memory is two panels' worth plus O(n²) — never m·n — and is reported
// in Result.Stream.MaxResidentBytes. A SinkToFile's path is replaced
// only when the run succeeds: a run that fails, is cancelled or crashes
// leaves the path's previous file bitwise intact and no partial matrix
// behind, so src and sink may name the same file.
func FactorizeStreaming(src *MatrixSource, sink *MatrixSink, opts Options) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("cacqr: FactorizeStreaming needs a source")
	}
	m, n := src.Dims()
	j, err := newJob(m, n, plan.Plan{Variant: plan.StreamCQR2, PanelWidth: opts.PanelRows}, opts)
	if err != nil {
		return nil, err
	}
	return execute(context.Background(), j, src.src, sink)
}

// executeStream is execute for a stream-cqr2 job: src goes to the
// out-of-core driver panel by panel and is never resident.
func executeStream(ctx context.Context, j job, src *runSource, sink *MatrixSink) (*Result, error) {
	ss := obs.FromContext(ctx).Stage("stream")
	src.span = ss
	defer ss.End()
	ss.SetInt("m", int64(j.M))
	ss.SetInt("n", int64(j.N))
	ss.SetInt("panel_rows", int64(j.PanelWidth))

	var snk stream.Sink
	if sink != nil {
		var err error
		snk, err = sink.open(j.M, j.N)
		if err != nil {
			return nil, err
		}
	}
	sres, err := stream.Factorize(src, snk, stream.Options{
		PanelRows: j.PanelWidth,
		Workers:   j.Workers,
		Shifted:   plan.CQR2Breaks(j.condEst),
	})
	if err != nil {
		if sink != nil {
			sink.abort()
		}
		return nil, err
	}
	if sink != nil {
		if err := sink.finish(); err != nil {
			return nil, err
		}
	}
	info := &StreamInfo{
		Panels:           sres.Panels,
		PanelRows:        sres.PanelRows,
		Shifted:          sres.Shifted,
		ReadPasses:       sres.ReadPasses,
		Pass1Orth:        sres.Pass1Orth,
		MaxResidentBytes: 8 * sres.MaxResidentWords,
		ReadBytes:        sres.ReadBytes,
		WrittenBytes:     sres.WrittenBytes,
	}
	ss.SetInt("panels", int64(info.Panels))
	ss.SetBool("shifted", info.Shifted)
	ss.SetInt("read_passes", int64(info.ReadPasses))
	ss.SetFloat("pass1_orth", info.Pass1Orth)
	ss.SetInt("resident_bytes", info.MaxResidentBytes)
	ss.SetInt("io_read_bytes", info.ReadBytes)
	ss.SetInt("io_written_bytes", info.WrittenBytes)

	res := &Result{
		R:      fromLin(sres.R),
		Stats:  CostStats{Flops: sres.Flops, Bytes: sres.ReadBytes + sres.WrittenBytes},
		Stream: info,
	}
	if sink != nil && sink.q != nil {
		res.Q = fromLin(sink.q)
	}
	return res, nil
}
