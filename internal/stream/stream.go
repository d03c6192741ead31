// Package stream factors matrices bigger than memory with the paper's
// own algorithm: 1D-CholeskyQR2 on one rank, where the only step that
// touches the other ranks' rows — the allreduce of the n×n Gram matrix —
// becomes a running sum over row panels, G += AᵢᵀAᵢ (the chunked-Gram
// loop). The tall m×n matrix arrives as row panels from a Source; each
// pass is one sequential scan, read one panel ahead of the kernels, that
// keeps three panels' worth and a few n×n factors resident, and every
// flop runs in lin's SYRK/TRMM kernels. Two scans give R, a third
// writes the explicit Q panel by panel into an optional Sink;
// ill-conditioned inputs take one more scan on the shifted ladder
// (streamed ShiftedCQR3). The passes themselves are core.Ladder and
// the n×n step — factor the Gram matrix, fold R, shift — is
// core.Replicated, the same code the in-memory and 1D drivers run; this
// package is the matrix it runs on. See Factorize.
//
// Sources and sinks are deliberately io.Reader-shaped: Dense-backed
// (views over an in-memory matrix), file-backed (a little-endian binary
// panel format), and generator-backed (the deterministic RandomMatrix
// sequence, so a daemon can stream a "gen" workload without ever
// holding it).
package stream

import (
	"fmt"
	"io"

	"cacqr/internal/lin"
)

// Source yields consecutive row panels of an m×n matrix, top to
// bottom. Next returns at most max rows; io.EOF signals exhaustion.
// Every source must be rewindable and must replay the same values after
// Reset: Factorize rewinds at entry and scans the matrix two to five
// times.
type Source interface {
	// Dims returns the full matrix shape (m, n).
	Dims() (m, n int)
	// Next returns the next panel of at most max rows (max ≥ 1). The
	// returned matrix is only valid until the following Next or Reset
	// call (sources reuse its storage); callers copy what they must
	// keep. Returns io.EOF when no rows remain.
	Next(max int) (*lin.Matrix, error)
	// Reset rewinds the source to the first row.
	Reset() error
}

// Sink accepts consecutive row panels of the output matrix, top to
// bottom.
type Sink interface {
	Append(panel *lin.Matrix) error
}

// DenseSource streams an in-memory matrix as row-panel views — the
// zero-copy adapter the planner's dispatch path uses when an in-memory
// matrix is routed to the streaming variant.
type DenseSource struct {
	a   *lin.Matrix
	row int
}

// NewDenseSource wraps a (not copied) as a Source.
func NewDenseSource(a *lin.Matrix) *DenseSource { return &DenseSource{a: a} }

// Matrix returns the wrapped matrix itself, for a consumer that wants
// all of it at once instead of panel by panel.
func (s *DenseSource) Matrix() *lin.Matrix { return s.a }

// Dims implements Source.
func (s *DenseSource) Dims() (int, int) { return s.a.Rows, s.a.Cols }

// Next implements Source, returning views into the backing matrix.
func (s *DenseSource) Next(max int) (*lin.Matrix, error) {
	if max < 1 {
		return nil, fmt.Errorf("stream: panel size %d", max)
	}
	if s.row >= s.a.Rows {
		return nil, io.EOF
	}
	r := s.a.Rows - s.row
	if r > max {
		r = max
	}
	v := s.a.View(s.row, 0, r, s.a.Cols)
	s.row += r
	return v, nil
}

// Reset implements Source.
func (s *DenseSource) Reset() error {
	s.row = 0
	return nil
}

// DenseSink assembles appended panels into one in-memory matrix —
// the adapter behind returning an explicit Q from the public API.
type DenseSink struct {
	m   *lin.Matrix
	row int
}

// NewDenseSink allocates a sink for an m×n output.
func NewDenseSink(m, n int) *DenseSink { return &DenseSink{m: lin.NewMatrix(m, n)} }

// Append implements Sink.
func (s *DenseSink) Append(panel *lin.Matrix) error {
	if panel.Cols != s.m.Cols {
		return fmt.Errorf("stream: panel width %d, want %d", panel.Cols, s.m.Cols)
	}
	if s.row+panel.Rows > s.m.Rows {
		return fmt.Errorf("stream: sink overflow at row %d + %d > %d", s.row, panel.Rows, s.m.Rows)
	}
	s.m.View(s.row, 0, panel.Rows, panel.Cols).CopyFrom(panel)
	s.row += panel.Rows
	return nil
}

// Matrix returns the assembled output (valid once every panel has been
// appended).
func (s *DenseSink) Matrix() *lin.Matrix { return s.m }

// Rows reports how many rows have been appended so far.
func (s *DenseSink) Rows() int { return s.row }

// Drain copies every panel of src into snk, panelRows rows at a time —
// the plain pump behind spilling a source to disk or materializing one
// in memory.
func Drain(src Source, snk Sink, panelRows int) error {
	if panelRows < 1 {
		panelRows = 4096
	}
	for {
		p, err := src.Next(panelRows)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := snk.Append(p); err != nil {
			return err
		}
	}
}
