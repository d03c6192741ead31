package stream

import (
	"errors"
	"fmt"
	"io"

	"cacqr/internal/core"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
)

// Options configures a streaming factorization.
type Options struct {
	// PanelRows is the number of rows per in-core panel (must be ≥ n;
	// clamped to m). This is the knob that trades resident memory for
	// fewer, larger reads.
	PanelRows int
	// Workers bounds the goroutines of each in-core kernel call (0 =
	// GOMAXPROCS, 1 = serial); the read-ahead stage and the consumer may
	// each be running one call at once. Results are bitwise identical
	// for any value.
	Workers int
	// Shifted starts on the shifted ladder (streamed ShiftedCQR3: three
	// Gram passes, the first one shifted). When false the driver runs
	// plain CholeskyQR2 and escalates by itself if a Gram matrix is not
	// numerically positive definite or pass 1 left Q too far from
	// orthonormal for pass 2 to repair.
	Shifted bool
}

// Result carries the streamed factorization outputs and the driver's
// own resource accounting. Flops, IOOps and the byte counts equal
// costmodel.StreamCQR2 exactly (when no escalation re-ran a pass);
// MaxResidentWords is bounded by costmodel.StreamCQR2Memory.
type Result struct {
	// R is the n×n upper-triangular factor with positive diagonal.
	R *lin.Matrix
	// Panels is how many row panels the source yields per pass.
	Panels int
	// PanelRows is the (clamped) panel height actually used.
	PanelRows int
	// Shifted reports that the shifted ladder ran, forced or escalated.
	Shifted bool
	// ReadPasses counts scans of the source: 2 for R only, 3 with Q,
	// one more on the shifted ladder and one more again when the plain
	// ladder's second pass was spent discovering the need to escalate.
	ReadPasses int
	// Pass1Orth is the measured ‖QᵀQ−I‖_F of the Q entering the final
	// CholeskyQR pass — read off the last Gram matrix, which that pass
	// forms anyway. The driver never returns a result with it ≥ ½.
	Pass1Orth float64
	// Flops is the charged flop count (lin's Syrk/Trsm/Chol/TriInv
	// conventions, as in the cost model).
	Flops int64
	// MaxResidentWords is the peak number of float64 words the driver
	// held at once — the quantity bounded by costmodel.StreamCQR2Memory.
	MaxResidentWords int64
	// ReadBytes / WrittenBytes / IOOps count source reads and sink
	// writes in the cost model's units (8 bytes per word, one op per
	// panel touch).
	ReadBytes    int64
	WrittenBytes int64
	IOOps        int64
}

// maxPass1Orth is the acceptance threshold on ‖Q₁ᵀQ₁−I‖_F: below ½
// every eigenvalue of the Gram matrix lies in (½, 3⁄2), so κ(Q₁) < √3
// and one more CholeskyQR pass lands at O(ε) (Yamamoto et al.).
const maxPass1Orth = 0.5

// accountant tracks the driver's resident float64 words so the peak can
// be compared against the memory model.
type accountant struct{ cur, peak int64 }

func (a *accountant) alloc(words int64) {
	a.cur += words
	if a.cur > a.peak {
		a.peak = a.cur
	}
}

func (a *accountant) free(words int64) { a.cur -= words }

// driver is the state one Factorize call threads through its passes. It
// is also the matrix the CholeskyQR ladder runs on (core.Tall): its Gram
// matrix is a scan of the source, and applying an inverse means keeping
// it for every later scan.
type driver struct {
	core.Replicated
	src     Source
	n, b    int
	workers int
	bufs    [2]*lin.Matrix // b×n each: one being read into, one being computed on
	span    *obs.Span      // parent of the per-pass spans; nil = untraced
	res     *Result
	acct    accountant
	g1      *lin.Matrix   // Σ AᵢᵀAᵢ, accumulated once and kept for escalation
	ys      []*lin.Matrix // the inverses Yᵢ = Lᵢ⁻¹ found so far, in application order
}

// Factorize runs the out-of-core CholeskyQR2 over src — the paper's
// 1D-CQR2 with the Gram allreduce replaced by accumulation over row
// panels. Pass 1 accumulates G₁ = Σ AᵢᵀAᵢ and takes (L₁, Y₁) =
// CholInv(G₁); pass 2 re-reads each panel, applies Y₁ᵀ in place and
// accumulates G₂ (whose distance from I is the measured orthogonality
// of Q₁); R = R₂·R₁. When sink is non-nil a last pass re-reads each
// panel, replays the same triangular products one after the other — so
// the Q that is written is bit for bit the Q whose Gram matrix was
// factored — and appends it. Options.Shifted, a failed Cholesky, or a
// Q₁ too far from orthonormal switch to the shifted ladder: the Fukaya
// shift is added to the G₁ already in hand and one more Gram pass is
// inserted (streamed ShiftedCQR3). The error wraps
// core.ErrIllConditioned when even that ladder cannot certify the
// result. Every pass reads one panel ahead of its consumer and applies
// that panel's triangular products there (readAhead); at no point is
// more than the source's panel, two panel buffers and O(n²) state
// resident.
func Factorize(src Source, sink Sink, opts Options) (*Result, error) {
	m, n := src.Dims()
	if m < 1 || n < 1 || m < n {
		return nil, fmt.Errorf("stream: shape %dx%d (need m ≥ n ≥ 1)", m, n)
	}
	b := opts.PanelRows
	if b < n {
		return nil, fmt.Errorf("stream: panel rows %d < n=%d", b, n)
	}
	b = min(b, m)

	d := &driver{src: src, n: n, b: b, workers: opts.Workers, res: &Result{PanelRows: b}}
	if c, ok := src.(obs.SpanCarrier); ok {
		d.span = c.TraceSpan()
	}
	res := d.res
	d.bufs = [2]*lin.Matrix{lin.NewMatrix(b, n), lin.NewMatrix(b, n)}
	d.acct.alloc(3 * int64(b) * int64(n)) // the source's live panel + bufs

	res.Shifted = opts.Shifted
	var err error
	if !res.Shifted {
		err = d.attempt(m, 2, false)
		res.Shifted = errors.Is(err, core.ErrIllConditioned)
	}
	if res.Shifted {
		// Forced, or escalating from the Gram matrix already in hand:
		// pass 1 is never re-read.
		err = d.attempt(m, 3, true)
	}
	if err != nil {
		return nil, err
	}
	d.acct.free(int64(n) * int64(n)) // g1

	if sink != nil {
		if err := d.qPass(sink); err != nil {
			return nil, err
		}
	}
	res.MaxResidentWords = d.acct.peak
	return res, nil
}

// attempt runs core.Ladder over the source and leaves R, Pass1Orth and
// the inverses in the driver. It refuses a final pass that started too
// far from orthonormal.
func (d *driver) attempt(m, passes int, shifted bool) (err error) {
	d.ys = nil
	if d.g1 != nil { // a failed attempt's factors are gone; the panels and g1 stay
		d.acct.cur = (3*int64(d.b) + int64(d.n)) * int64(d.n)
	}
	d.res.Pass1Orth, err = core.Ladder(d, m, passes, shifted)
	d.res.R = d.R
	if err == nil && !(d.res.Pass1Orth < maxPass1Orth) { // NaN fails too
		err = fmt.Errorf("%w: ‖QᵀQ−I‖_F = %.3g entering the final pass (need < %g)",
			core.ErrIllConditioned, d.res.Pass1Orth, maxPass1Orth)
	}
	return err
}

// Gram implements core.Tall: one scan of the source through every
// inverse found so far — except that Σ AᵢᵀAᵢ is accumulated only once.
func (d *driver) Gram() (err error) {
	if len(d.ys) > 0 {
		d.G, err = d.gramPass()
		return err
	}
	if d.g1 == nil {
		if d.g1, err = d.gramPass(); err != nil {
			return err
		}
		d.res.Panels = int(d.res.IOOps)
	}
	d.G = d.g1
	return nil
}

// Factor implements core.Tall. The step has just factored this pass's
// Gram matrix: L, Y and Rᵢ were live next to the running R; what stays
// is Y, kept here to be replayed on every later scan, and one R.
func (d *driver) Factor(m int, shifted, first bool) error {
	flops, err := d.Step(m, shifted, first)
	if err != nil {
		return err
	}
	d.res.Flops += flops
	nn := int64(d.n) * int64(d.n)
	d.acct.alloc(3 * nn) // l, y, r
	d.acct.free(nn)      // l
	if !first {
		d.acct.free(2 * nn) // the previous R and this pass's Gram matrix
	}
	d.ys = append(d.ys, d.Y)
	return nil
}

// scan is one sequential pass over the source: rewind, read one panel
// ahead of the consumer — the read-ahead stage also multiplies each
// panel in place by every Yᵀ in d.ys — hand each panel to use in order,
// and insist on exactly m rows. It charges the reads and the triangular
// products.
func (d *driver) scan(use func(i int, p *lin.Matrix) error) error {
	res := d.res
	if err := d.src.Reset(); err != nil {
		return fmt.Errorf("stream: rewinding for pass %d: %w", res.ReadPasses+1, err)
	}
	res.ReadPasses++
	ra := startReadAhead(d.src, d.bufs, d.b, d.ys, d.workers)
	defer ra.close()
	rows := 0
	for i := 0; ; i++ {
		p, err := ra.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream: pass %d, panel %d: %w", res.ReadPasses, i, err)
		}
		rows += p.Rows
		res.IOOps++
		res.ReadBytes += 8 * int64(p.Rows) * int64(d.n)
		res.Flops += int64(len(d.ys)) * lin.TrsmFlops(p.Rows, d.n)
		if err := use(i, p); err != nil {
			return err
		}
	}
	if m, _ := d.src.Dims(); rows != m {
		return fmt.Errorf("stream: pass %d: source yielded %d of %d rows", res.ReadPasses, rows, m)
	}
	return nil
}

// gramPass scans the source and returns Σ (AᵢY₁ᵀ⋯Yₖᵀ)ᵀ(AᵢY₁ᵀ⋯Yₖᵀ).
func (d *driver) gramPass() (*lin.Matrix, error) {
	defer d.tracePass("gram-pass")()
	g := lin.NewMatrix(d.n, d.n)
	d.acct.alloc(int64(d.n) * int64(d.n))
	err := d.scan(func(_ int, p *lin.Matrix) error {
		lin.SyrkParallel(d.workers, 1, p, 1, g)
		d.res.Flops += lin.SyrkFlops(p.Rows, d.n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// qPass scans the source once more and appends Q = A·Y₁ᵀ⋯Yₖᵀ to sink
// panel by panel.
func (d *driver) qPass(sink Sink) error {
	defer d.tracePass("q-pass")()
	return d.scan(func(i int, q *lin.Matrix) error {
		if err := sink.Append(q); err != nil {
			return fmt.Errorf("stream: writing Q panel %d: %w", i, err)
		}
		d.res.IOOps++
		d.res.WrittenBytes += 8 * int64(q.Rows) * int64(d.n)
		return nil
	})
}

// tracePass opens the trace span of one pass; the returned func stamps
// it with what the pass added to the run's counters and ends it.
func (d *driver) tracePass(name string) (end func()) {
	sp := d.span.Stage(name)
	sp.SetInt("pass", int64(d.res.ReadPasses+1))
	before := *d.res
	return func() {
		sp.SetInt("read_bytes", d.res.ReadBytes-before.ReadBytes)
		sp.SetInt("written_bytes", d.res.WrittenBytes-before.WrittenBytes)
		sp.SetInt("flops", d.res.Flops-before.Flops)
		sp.End()
	}
}
