package cacqr

import (
	"fmt"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/obs"
	"cacqr/internal/stream"
)

// MatrixSource feeds a factorization row panels of an m×n matrix that
// need never be resident all at once — the input side of the
// out-of-core streaming TSQR. Build one with SourceFromDense,
// SourceFromFile, or SourceFromGenerator.
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

// SourceFromDense streams an in-memory matrix (not copied) — mostly
// useful for testing the streaming path against in-core results.
func SourceFromDense(a *Dense) *MatrixSource {
	return &MatrixSource{src: stream.NewDenseSource(a.toLin())}
}

// SourceFromFile opens a matrix file written by SinkToFile (or
// WriteMatrixFile) as a panel source. The file's two streaming passes
// are sequential scans.
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
// pass entirely — the factorization then makes a single pass and
// returns only R.
type MatrixSink struct {
	path  string // file sink destination; "" = dense
	dense *stream.DenseSink
	file  *stream.FileSink
}

// SinkToDense assembles Q in memory; read it back with Dense after the
// factorization returns.
func SinkToDense() *MatrixSink { return &MatrixSink{} }

// SinkToFile streams Q to a matrix file at path, so even the output
// never needs m·n resident words. The file is finalized when the
// factorization returns.
func SinkToFile(path string) *MatrixSink { return &MatrixSink{path: path} }

// Dense returns the assembled Q of a SinkToDense after a successful
// factorization.
func (s *MatrixSink) Dense() (*Dense, error) {
	if s.dense == nil {
		return nil, fmt.Errorf("cacqr: sink holds no in-memory Q (use SinkToDense and run FactorizeStreaming first)")
	}
	return fromLin(s.dense.Matrix()), nil
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
	s.dense = stream.NewDenseSink(m, n)
	return s.dense, nil
}

// finish finalizes a file-backed sink (flush + row-count check).
func (s *MatrixSink) finish() error {
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}

// StreamInfo reports a streaming run's shape and resource accounting.
type StreamInfo struct {
	// Panels is how many row panels the source yielded; PanelRows is the
	// panel height used.
	Panels, PanelRows int
	// ShiftedPanels counts panels that escalated to ShiftedCQR3.
	ShiftedPanels int
	// MaxResidentBytes is the peak matrix memory the driver held at
	// once — bounded by one panel plus the R-reduction chain, not m·n.
	MaxResidentBytes int64
	// ReadBytes and WrittenBytes are the streaming I/O volumes (2 reads
	// + 1 write of the matrix when Q is produced; 1 read for R only).
	ReadBytes, WrittenBytes int64
}

// DefaultPanelRows is the panel height FactorizeStreaming uses when
// Options.PanelRows is unset: max(4096, n), clamped to m.
const DefaultPanelRows = 4096

// resolvePanelRows applies the default and clamps.
func resolvePanelRows(panelRows, m, n int) int {
	b := panelRows
	if b == 0 {
		b = DefaultPanelRows
		if b < n {
			b = n
		}
	}
	if b > m {
		b = m
	}
	return b
}

// FactorizeStreaming factors the matrix behind src with the out-of-core
// sequential TSQR (arXiv 0809.2407 §4): row panels of Options.PanelRows
// rows are factored in core with CholeskyQR2 — escalating per panel to
// ShiftedCQR3 when ill-conditioning demands it (Options.CondEst beyond
// the CQR2 regime forces the escalation up front) — and the R factors
// merge through a chain of small stacked Householder QRs. When sink is
// non-nil a second pass over src writes the explicit Q into it; Result.Q
// is populated only for a SinkToDense. Peak resident matrix memory is
// one panel plus the O(panels·n²) reduction state — never m·n — and is
// reported in Result.Stream.MaxResidentBytes.
func FactorizeStreaming(src *MatrixSource, sink *MatrixSink, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("cacqr: FactorizeStreaming needs a source")
	}
	m, n := src.Dims()
	b := resolvePanelRows(opts.PanelRows, m, n)
	if b < n {
		return nil, fmt.Errorf("cacqr: PanelRows %d < n=%d", b, n)
	}

	sp := obs.FromContext(opts.ctx)
	ss := sp.Stage("stream")
	defer ss.End()
	ss.SetInt("m", int64(m))
	ss.SetInt("n", int64(n))
	ss.SetInt("panel_rows", int64(b))

	var snk stream.Sink
	if sink != nil {
		var err error
		snk, err = sink.open(m, n)
		if err != nil {
			return nil, err
		}
	}
	sres, err := stream.Factorize(src.src, snk, stream.Options{
		PanelRows: b,
		Workers:   opts.Workers,
		Shifted:   opts.CondEst > 1 && !core.CanCQR2Handle(opts.CondEst),
	})
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if err := sink.finish(); err != nil {
			return nil, err
		}
	}
	ss.SetInt("panels", int64(sres.Panels))
	ss.SetInt("shifted_panels", int64(sres.ShiftedPanels))
	ss.SetInt("resident_bytes", 8*sres.MaxResidentWords)
	ss.SetInt("io_read_bytes", sres.ReadBytes)
	ss.SetInt("io_written_bytes", sres.WrittenBytes)

	res := &Result{
		R: fromLin(sres.R),
		Stats: CostStats{
			Flops: sres.Flops,
			Bytes: sres.ReadBytes + sres.WrittenBytes,
		},
		Stream: &StreamInfo{
			Panels:           sres.Panels,
			PanelRows:        sres.PanelRows,
			ShiftedPanels:    sres.ShiftedPanels,
			MaxResidentBytes: 8 * sres.MaxResidentWords,
			ReadBytes:        sres.ReadBytes,
			WrittenBytes:     sres.WrittenBytes,
		},
	}
	if sink != nil && sink.dense != nil {
		res.Q, err = sink.Dense()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ModelStreamTSQR predicts the streaming TSQR's cost (flops plus
// disk-tier I/O) for an m×n matrix in panels of panelRows rows; writeQ
// includes the Q write-back passes.
func ModelStreamTSQR(m, n, panelRows int, writeQ bool) (ModelCost, error) {
	return costmodel.StreamTSQR(m, n, panelRows, writeQ)
}

// ModelStreamTSQRMemory predicts the streaming driver's peak resident
// footprint in bytes.
func ModelStreamTSQRMemory(m, n, panelRows int) (int64, error) {
	w, err := costmodel.StreamTSQRMemory(m, n, panelRows)
	if err != nil {
		return 0, err
	}
	return 8 * w, nil
}

// materializeSource reads an entire source into a Dense — the path a
// generous memory budget takes when the planner decides the matrix
// fits in core after all.
func materializeSource(src *MatrixSource) (*Dense, error) {
	m, n := src.Dims()
	if err := src.src.Reset(); err != nil {
		return nil, err
	}
	snk := stream.NewDenseSink(m, n)
	if err := stream.Drain(src.src, snk, resolvePanelRows(0, m, n)); err != nil {
		return nil, err
	}
	return fromLin(snk.Matrix()), nil
}
