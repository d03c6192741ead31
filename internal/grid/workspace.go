package grid

import "cacqr/internal/lin"

// Workspace is one rank's matrix storage for the length of one job: a
// single slab of words, sized once, that the algorithms on the rank's
// grid carve every temporary and every intermediate result out of, so a
// factorization allocates nothing per call. It hangs off the rank's
// Cube, is reachable from nowhere else, and is garbage with it.
//
// The discipline is a stack. Matrix takes the next words; Mark and
// Release bracket a call, and Release gives back everything taken since
// the Mark at once. A function that returns a matrix has it handed in:
// the caller takes the result's slot first, the callee's temporaries
// stack above it and are released before it returns. Matrix does not
// clear what it hands out.
//
// A request that does not fit falls back to the heap and is counted, so
// a run is never wrong for being under-sized, and "the rank stayed
// inside its modeled memory" is two numbers a test can assert: Overflows
// is 0 and HighWater is at most the model's words.
type Workspace struct {
	buf []float64
	top int // words of buf taken

	// Headers come from a stack of their own, in chunks that stay put
	// once made, so the *lin.Matrix values handed out stay valid.
	hdrs []*[hdrChunk]lin.Matrix
	nhdr int

	spill     int // words taken since the outermost Mark that live on the heap
	highWater int
	overflows int
}

const hdrChunk = 64

// Mark is a position of the stack, for Release.
type Mark struct{ top, nhdr, spill int }

func newWorkspace(words int) *Workspace {
	return &Workspace{buf: make([]float64, words)}
}

// Matrix returns a compact r × c matrix on top of the stack. Its
// elements are whatever the slab held.
func (w *Workspace) Matrix(r, c int) *lin.Matrix {
	n := r * c
	m := w.header()
	*m = lin.Matrix{Rows: r, Cols: c, Stride: c}
	if n <= len(w.buf)-w.top {
		m.Data = w.buf[w.top : w.top+n : w.top+n]
		w.top += n
	} else {
		m.Data = make([]float64, n)
		w.spill += n
		w.overflows++
	}
	w.highWater = max(w.highWater, w.top+w.spill)
	return m
}

// View is m.View with the header on the stack: a view of the r × c
// submatrix of m at (i, j), valid until the enclosing Release.
func (w *Workspace) View(m *lin.Matrix, i, j, r, c int) *lin.Matrix {
	v := w.header()
	*v = m.Slice(i, j, r, c)
	return v
}

func (w *Workspace) header() *lin.Matrix {
	if w.nhdr == len(w.hdrs)*hdrChunk {
		w.hdrs = append(w.hdrs, new([hdrChunk]lin.Matrix))
	}
	h := &w.hdrs[w.nhdr/hdrChunk][w.nhdr%hdrChunk]
	w.nhdr++
	return h
}

// Mark returns the current top of the stack.
func (w *Workspace) Mark() Mark { return Mark{w.top, w.nhdr, w.spill} }

// Release gives back everything taken since m. Matrices and views taken
// since then must not be used again.
func (w *Workspace) Release(m Mark) { w.top, w.nhdr, w.spill = m.top, m.nhdr, m.spill }

// HighWater is the most words that were live at once, heap fallbacks
// included.
func (w *Workspace) HighWater() int { return w.highWater }

// Overflows counts the Matrix calls that did not fit the slab.
func (w *Workspace) Overflows() int { return w.overflows }
