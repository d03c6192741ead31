package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cacqr/internal/lin"
)

// allocated reports the bytes f allocates on the heap. Top-level tests
// that do not call t.Parallel run alone, so the count is f's.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A file run holds only the panels the memory model counts: FileSource
// reads straight into the caller's panel and holds none of its own, and
// FileSink writes a contiguous panel from the panel's own memory, with
// no byte slab beside either.
func TestFileIOAllocatesNoSlab(t *testing.T) {
	const m, n, rows = 2048, 32, 256
	const panelBytes = 8 * rows * n
	a := lin.RandomMatrix(m, n, 3)
	path := filepath.Join(t.TempDir(), "a.mat")

	var err error
	wrote := allocated(func() {
		var snk *FileSink
		if snk, err = CreateFile(path, m, n); err != nil {
			return
		}
		for lo := 0; lo < m && err == nil; lo += rows {
			err = snk.Append(a.View(lo, 0, rows, n))
		}
		if cerr := snk.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrote >= panelBytes/4 {
		t.Errorf("CreateFile, %d contiguous Appends and Close allocated %d bytes, want < %d (¼ panel)", m/rows, wrote, panelBytes/4)
	}

	row := 0
	buf := lin.NewMatrix(rows, n)
	read := allocated(func() {
		var src *FileSource
		if src, err = OpenFile(path); err != nil {
			return
		}
		defer src.Close()
		for {
			var p *lin.Matrix
			if p, err = src.NextInto(buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				return
			}
			if !p.Equal(a.View(row, 0, p.Rows, n)) {
				t.Errorf("rows %d..%d did not read back bitwise", row, row+p.Rows)
			}
			row += p.Rows
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if row != m {
		t.Fatalf("read %d of %d rows", row, m)
	}
	if read >= panelBytes/4 {
		t.Errorf("OpenFile and a full scan into a caller's buffer allocated %d bytes, want < %d (¼ panel)", read, panelBytes/4)
	}
}

// A strided panel cannot be written from its own memory in one piece; it
// goes out row by row and still lands as the rows of the matrix.
func TestFileSinkWritesStridedPanels(t *testing.T) {
	const m, n = 300, 20
	wide := lin.RandomMatrix(m, n+7, 4)
	a := wide.View(0, 3, m, n)
	path := filepath.Join(t.TempDir(), "a.mat")
	if err := WriteFile(path, NewDenseSource(a), 256); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	snk := NewDenseSink(m, n)
	if err := Drain(src, snk, 64); err != nil {
		t.Fatal(err)
	}
	if !snk.Matrix().Equal(a) {
		t.Error("a strided matrix did not read back bitwise")
	}
}

// The big-endian path runs on every host: reversing the words of
// big-endian-encoded values yields their little-endian bytes, which is
// what swapWords does between a big-endian host's memory and the file.
func TestSwapWordsTurnsBigEndianIntoFileBytes(t *testing.T) {
	vals := []float64{1.5, -2, math.Pi, math.Inf(-1), math.SmallestNonzeroFloat64, 0, math.Float64frombits(0x7ff8_0000_dead_beef)}
	words := make([]float64, len(vals))
	raw := lin.HostBytes(words)
	var want []byte
	for i, v := range vals {
		binary.BigEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	swapWords(words)
	if !bytes.Equal(raw, want) {
		t.Fatalf("swapped\n got  %x\n want %x", raw, want)
	}
}

// A sink that gets Appends but is never closed stands in for a crash:
// meanwhile the path holds the old matrix bitwise, and the partial
// temporary file beside it is one OpenFile refuses. Abort removes that
// file and nothing else.
func TestStreamingFileSinkNeverClosed(t *testing.T) {
	const m, n, rows = 600, 8, 128
	dir := t.TempDir()
	path := filepath.Join(dir, "q.mat")
	if err := WriteFile(path, NewDenseSource(lin.RandomMatrix(m, n, 1)), rows); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snk, err := CreateFile(path, m, n)
	if err != nil {
		t.Fatal(err)
	}
	b := lin.RandomMatrix(m, n, 2)
	for lo := 0; lo < 3*rows; lo += rows {
		if err := snk.Append(b.View(lo, 0, rows, n)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("mid-write the path no longer holds the old matrix (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "q.mat" {
			continue
		}
		if src, err := OpenFile(filepath.Join(dir, e.Name())); err == nil {
			src.Close()
			t.Errorf("OpenFile accepts the partial file %s", e.Name())
		}
	}
	snk.Abort()
	if entries, err = os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "q.mat" {
		t.Errorf("after Abort the directory holds %v (err %v), want only q.mat", entries, err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("after Abort the path no longer holds the old matrix (err %v)", err)
	}
}
