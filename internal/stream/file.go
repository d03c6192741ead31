package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"cacqr/internal/lin"
)

// File-backed panels: a tiny self-describing binary format so matrices
// bigger than memory can live on disk between passes. Layout is the
// 8-byte magic, two little-endian int64 dims, then m·n little-endian
// float64 values row-major — sequential-scan friendly, which is the
// access pattern every streaming pass makes.

const fileMagic = "CACQRSTM"

// headerSize is magic + m + n.
const headerSize = 8 + 8 + 8

// WriteFileHeader writes the format header for an m×n matrix.
func writeFileHeader(w io.Writer, m, n int) error {
	var hdr [headerSize]byte
	copy(hdr[:8], fileMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	_, err := w.Write(hdr[:])
	return err
}

func readFileHeader(r io.Reader) (m, n int, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("stream: reading matrix header: %w", err)
	}
	if string(hdr[:8]) != fileMagic {
		return 0, 0, fmt.Errorf("stream: bad matrix file magic %q", hdr[:8])
	}
	m = int(int64(binary.LittleEndian.Uint64(hdr[8:16])))
	n = int(int64(binary.LittleEndian.Uint64(hdr[16:24])))
	if m < 1 || n < 1 {
		return 0, 0, fmt.Errorf("stream: bad matrix file dims %dx%d", m, n)
	}
	return m, n, nil
}

// checkFileSize validates the header's dims against the bytes actually
// on disk, so a malformed or truncated header can never make a reader
// allocate panel buffers sized by fictitious dimensions. The product is
// checked in uint64 before int64 math can overflow.
func checkFileSize(size int64, m, n int) error {
	if size < headerSize {
		return fmt.Errorf("stream: matrix file of %d bytes is shorter than its header", size)
	}
	elems := uint64(m) * uint64(n)
	if uint64(m) != 0 && elems/uint64(m) != uint64(n) ||
		elems > (uint64(1<<63-1)-headerSize)/8 {
		return fmt.Errorf("stream: matrix file dims %dx%d overflow", m, n)
	}
	if want := int64(headerSize) + 8*int64(elems); size != want {
		return fmt.Errorf("stream: matrix file is %d bytes, want %d for %dx%d", size, want, m, n)
	}
	return nil
}

// FileSource streams panels from a matrix file written by FileSink (or
// WriteFile). Each Next reads one panel-sized slab straight from the
// file and decodes it into a panel buffer that the next call reuses;
// Reset seeks back to the first data byte, so every pass of the driver
// costs one sequential scan.
type FileSource struct {
	f     *os.File
	m, n  int
	row   int
	raw   []byte
	panel *lin.Matrix
}

// OpenFile opens path as a panel source.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, n, err := readFileHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := checkFileSize(st.Size(), m, n); err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, m: m, n: n}, nil
}

// Dims implements Source.
func (s *FileSource) Dims() (int, int) { return s.m, s.n }

// Next implements Source. A file that has shrunk since OpenFile
// validated its size fails here with the rows that could not be read.
func (s *FileSource) Next(max int) (*lin.Matrix, error) {
	if max < 1 {
		return nil, fmt.Errorf("stream: panel size %d", max)
	}
	if s.row >= s.m {
		return nil, io.EOF
	}
	r := min(s.m-s.row, max)
	if s.panel == nil || s.panel.Rows < r {
		s.raw = make([]byte, 8*r*s.n)
		s.panel = lin.NewMatrix(r, s.n)
	}
	raw, p := s.raw[:8*r*s.n], s.panel.View(0, 0, r, s.n)
	if _, err := io.ReadFull(s.f, raw); err != nil {
		return nil, fmt.Errorf("stream: reading rows %d..%d: %w", s.row, s.row+r, err)
	}
	for i := range p.Data[:r*s.n] {
		p.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	s.row += r
	return p, nil
}

// Reset implements Source, seeking back to the first data row.
func (s *FileSource) Reset() error {
	if _, err := s.f.Seek(headerSize, io.SeekStart); err != nil {
		return err
	}
	s.row = 0
	return nil
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }

// FileSink writes appended panels to a matrix file readable by
// OpenFile, one panel-sized write each. Close validates that exactly m
// rows arrived.
type FileSink struct {
	f    *os.File
	m, n int
	row  int
	raw  []byte
}

// CreateFile creates path as a panel sink for an m×n matrix.
func CreateFile(path string, m, n int) (*FileSink, error) {
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("stream: bad sink dims %dx%d", m, n)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeFileHeader(f, m, n); err != nil {
		f.Close()
		return nil, err
	}
	return &FileSink{f: f, m: m, n: n}, nil
}

// Append implements Sink.
func (s *FileSink) Append(panel *lin.Matrix) error {
	if panel.Cols != s.n {
		return fmt.Errorf("stream: panel width %d, want %d", panel.Cols, s.n)
	}
	if s.row+panel.Rows > s.m {
		return fmt.Errorf("stream: sink overflow at row %d + %d > %d", s.row, panel.Rows, s.m)
	}
	if need := 8 * panel.Rows * s.n; cap(s.raw) < need {
		s.raw = make([]byte, need)
	}
	raw := s.raw[:0]
	for i := 0; i < panel.Rows; i++ {
		for _, v := range panel.Data[i*panel.Stride : i*panel.Stride+s.n] {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	if _, err := s.f.Write(raw); err != nil {
		return fmt.Errorf("stream: writing rows %d..%d: %w", s.row, s.row+panel.Rows, err)
	}
	s.row += panel.Rows
	return nil
}

// Close closes the file, failing if the row count is short.
func (s *FileSink) Close() error {
	if err := s.f.Close(); err != nil {
		return err
	}
	if s.row != s.m {
		return fmt.Errorf("stream: sink closed after %d of %d rows", s.row, s.m)
	}
	return nil
}

// Abort closes the file and removes it: the exit for a run that failed
// part-way, so no half-written matrix is left behind.
func (s *FileSink) Abort() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// WriteFile spills an entire source to path — the helper tests and the
// CLI use to materialize file-backed fixtures.
func WriteFile(path string, src Source, panelRows int) error {
	m, n := src.Dims()
	snk, err := CreateFile(path, m, n)
	if err != nil {
		return err
	}
	if err := Drain(src, snk, panelRows); err != nil {
		snk.Abort()
		return err
	}
	return snk.Close()
}
