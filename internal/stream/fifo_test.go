//go:build linux || darwin

package stream

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"cacqr/internal/lin"
)

// A FIFO at the path is written directly — a reader draining it gets
// the matrix file's bytes — and it is never removed, neither by Close
// nor by Abort. The matrix is larger than any pipe buffer, so the write
// cannot finish before the reader has opened the FIFO.
func TestStreamingFileSinkIntoFIFO(t *testing.T) {
	const m, n, rows = 16384, 16, 4096
	dir := t.TempDir()
	fifo, plain := filepath.Join(dir, "q.fifo"), filepath.Join(dir, "q.mat")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	a := lin.RandomMatrix(m, n, 6)
	if err := WriteFile(plain, NewDenseSource(a), rows); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte)
	go func() {
		var b []byte
		if f, err := os.Open(fifo); err == nil {
			b, _ = io.ReadAll(f)
			f.Close()
		}
		got <- b
	}()
	if err := WriteFile(fifo, NewDenseSource(a), rows); err != nil {
		t.Fatal(err)
	}
	if b := <-got; !bytes.Equal(b, want) {
		t.Errorf("the FIFO's reader got %d bytes, not the %d bytes of the matrix file", len(b), len(want))
	}

	snk, err := CreateFile(fifo, m, n)
	if err != nil {
		t.Fatal(err)
	}
	snk.Abort()
	if st, err := os.Lstat(fifo); err != nil || st.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("the FIFO is gone after a write and an Abort (lstat err %v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Errorf("the directory holds %v (err %v), want only q.fifo and q.mat", entries, err)
	}
}
