package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cacqr/internal/lin"
)

// validFileBytes builds a well-formed m×n matrix file in memory.
func validFileBytes(m, n int) []byte {
	var buf bytes.Buffer
	if err := writeFileHeader(&buf, m, n); err != nil {
		panic(err)
	}
	var b [8]byte
	for i := 0; i < m*n; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(i)))
		buf.Write(b[:])
	}
	return buf.Bytes()
}

// FuzzReadMatrixFile feeds arbitrary bytes to OpenFile. The contract
// under test: a malformed file errors — it never panics and never
// makes the reader allocate buffers sized by fictitious header dims —
// and a file that opens cleanly drains exactly the m×n it declared.
func FuzzReadMatrixFile(f *testing.F) {
	valid := validFileBytes(3, 2)
	f.Add(valid)
	f.Add(valid[:headerSize])   // header only, all data missing
	f.Add(valid[:headerSize-3]) // truncated header
	f.Add(append([]byte("NOTMAGIC"), valid[8:]...))

	huge := validFileBytes(1, 1) // header claims 2^40 rows, file has 8 bytes
	binary.LittleEndian.PutUint64(huge[8:16], 1<<40)
	f.Add(huge)
	zero := validFileBytes(1, 1)
	binary.LittleEndian.PutUint64(zero[8:16], 0)
	f.Add(zero)
	neg := validFileBytes(1, 1) // n = -1
	binary.LittleEndian.PutUint64(neg[16:24], ^uint64(0))
	f.Add(neg)
	overflow := validFileBytes(1, 1) // m·n·8 overflows int64
	binary.LittleEndian.PutUint64(overflow[8:16], 1<<62)
	binary.LittleEndian.PutUint64(overflow[16:24], 1<<62)
	f.Add(overflow)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.mat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFile(path)
		if err != nil {
			return // malformed input must error, and did
		}
		defer src.Close()
		m, n := src.Dims()
		buf := lin.NewMatrix(min(m, 64), n)
		rows := 0
		for {
			p, err := src.NextInto(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("validated %dx%d file failed at row %d: %v", m, n, rows, err)
			}
			if p.Cols != n || p.Rows < 1 {
				t.Fatalf("panel %dx%d from a %dx%d file", p.Rows, p.Cols, m, n)
			}
			rows += p.Rows
		}
		if rows != m {
			t.Fatalf("drained %d rows, want %d", rows, m)
		}
	})
}
