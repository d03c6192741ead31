package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"cacqr/internal/lin"
)

// File-backed panels: a tiny self-describing binary format so matrices
// bigger than memory can live on disk between passes. Layout is the
// 8-byte magic, two little-endian int64 dims, then m·n little-endian
// float64 values row-major — sequential-scan friendly, which is the
// access pattern every streaming pass makes. A panel body moves as its
// own memory (lin.HostBytes): one read into, or one write from, the
// panel's float64 storage. A big-endian host swaps the words in place
// in storage the file code owns, which is the only second path.

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
// WriteFile). NextInto reads one panel's bytes straight into the
// caller's panel — no raw slab, no decode loop, no panel of its own;
// Reset seeks back to the first data byte, so every pass of the driver
// costs one sequential scan. The source holds its file open: a FileSink
// that replaces the path meanwhile leaves it reading the old matrix to
// its end.
type FileSource struct {
	f     *os.File
	m, n  int
	row   int
	panel *lin.Matrix // Next's storage; NextInto never touches it
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

// NextInto implements Source. A file that has shrunk since OpenFile
// validated its size fails here with the rows that could not be read.
func (s *FileSource) NextInto(dst *lin.Matrix) (*lin.Matrix, error) {
	p, err := panelInto(dst, s.row, s.m, s.n)
	if err != nil {
		return nil, err
	}
	body := p.Data[:p.Rows*s.n]
	if _, err := io.ReadFull(s.f, lin.HostBytes(body)); err != nil {
		return nil, fmt.Errorf("stream: reading rows %d..%d: %w", s.row, s.row+p.Rows, err)
	}
	if !lin.LittleEndianHost() {
		swapWords(body)
	}
	s.row += p.Rows
	return p, nil
}

// Next is NextInto for a reader with no buffer of its own: it reads the
// next panel of at most max rows into storage the FileSource allocates
// once and reuses, so the panel is valid only until the following call.
func (s *FileSource) Next(max int) (*lin.Matrix, error) {
	if max < 1 {
		return nil, fmt.Errorf("stream: panel size %d", max)
	}
	r := min(s.m, max)
	if s.panel == nil || s.panel.Rows < r {
		s.panel = lin.NewMatrix(r, s.n)
	}
	return s.NextInto(s.panel.View(0, 0, r, s.n))
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
// OpenFile. A contiguous panel on a little-endian host is written from
// its own memory in one Write, with no staging slab; a strided panel is
// written row by row, and a big-endian host swaps each row in a one-row
// buffer.
//
// The new file replaces the path only once it is complete. The panels
// go to a temporary file beside the path; Close checks that exactly m
// rows arrived, removes the old file and renames the new one onto the
// path. So on success the path holds the new matrix; on a failed or
// cancelled run (Abort, or a Close that fails) and on a crash it holds
// the previous file bitwise, and nothing at all is left behind when
// there was none; it is empty only between Close's remove and its
// rename. A crash can leave the temporary file beside the path; unless
// every row reached it, OpenFile refuses it as shorter than its header
// says. A reader that opened the old file
// reads it to its end. A symlink is resolved first, so the link keeps
// pointing at the new file; other hard links to the old file keep the
// old matrix. The new file gets os.Create's mode, not the old one's. An
// existing path that is not a regular file (a FIFO, a device) is opened
// and written directly, and never removed. Nothing is synced to disk.
type FileSink struct {
	f    *os.File
	path string // the path Close renames f onto; "" when f is the path itself
	m, n int
	row  int
	buf  []float64
}

// CreateFile creates a panel sink for an m×n matrix that replaces path
// when it is closed.
func CreateFile(path string, m, n int) (*FileSink, error) {
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("stream: bad sink dims %dx%d", m, n)
	}
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	s := &FileSink{path: path, m: m, n: n}
	var err error
	if st, serr := os.Stat(path); serr == nil && !st.Mode().IsRegular() {
		s.path = ""
		s.f, err = os.Create(path)
	} else {
		s.f, err = createBeside(path)
	}
	if err != nil {
		return nil, err
	}
	if err := writeFileHeader(s.f, m, n); err != nil {
		s.Abort()
		return nil, err
	}
	return s, nil
}

// createBeside creates a new file in path's directory under a name no
// other file has, with os.Create's mode (0666 before the umask).
func createBeside(path string) (*os.File, error) {
	dir, base := filepath.Split(path)
	for try := 0; ; try++ {
		name := filepath.Join(dir, fmt.Sprintf(".%s.%d-%x.tmp", base, os.Getpid(), time.Now().UnixNano()+int64(try)))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || try == 10000 {
			return f, err
		}
	}
}

// Append implements Sink. The panel is never modified.
func (s *FileSink) Append(panel *lin.Matrix) error {
	if panel.Cols != s.n {
		return fmt.Errorf("stream: panel width %d, want %d", panel.Cols, s.n)
	}
	if s.row+panel.Rows > s.m {
		return fmt.Errorf("stream: sink overflow at row %d + %d > %d", s.row, panel.Rows, s.m)
	}
	step := panel.Rows // rows per Write
	if !lin.LittleEndianHost() || panel.Stride != s.n {
		step = 1
	}
	for i := 0; i < panel.Rows; i += step {
		words := panel.Data[i*panel.Stride:][:step*s.n]
		if !lin.LittleEndianHost() {
			s.buf = append(s.buf[:0], words...)
			swapWords(s.buf)
			words = s.buf
		}
		if _, err := s.f.Write(lin.HostBytes(words)); err != nil {
			return fmt.Errorf("stream: writing rows %d..%d: %w", s.row+i, s.row+i+step, err)
		}
	}
	s.row += panel.Rows
	return nil
}

// swapWords reverses the bytes of every word of data in place: the step
// between a big-endian host's memory and the file's little-endian bytes,
// in either direction.
func swapWords(data []float64) {
	for i, v := range data {
		data[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// Close checks that exactly m rows arrived, closes the file and puts
// it at the path. On any failure it is Abort: the path keeps what it
// held.
func (s *FileSink) Close() error {
	if s.row != s.m {
		s.Abort()
		return fmt.Errorf("stream: sink closed after %d of %d rows", s.row, s.m)
	}
	if err := s.f.Close(); err != nil {
		s.Abort()
		return err
	}
	if s.path == "" {
		return nil
	}
	// Remove, then rename: renaming over an existing file makes ext4
	// flush the new one first, which costs as much as a truncation.
	if err := os.Remove(s.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.Abort()
		return err
	}
	if err := os.Rename(s.f.Name(), s.path); err != nil {
		s.Abort()
		return err
	}
	return nil
}

// Abort closes the file and removes it if it is the temporary one: the
// exit for a run that failed part-way, which leaves the path as it was.
func (s *FileSink) Abort() {
	s.f.Close()
	if s.path != "" {
		os.Remove(s.f.Name())
	}
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
