package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	cacqr "cacqr"
	"cacqr/internal/core"
	"cacqr/internal/lin"
)

// seq-tall: cacqr.CholeskyQR2 on one tall well-conditioned matrix.
const (
	seqM, seqN = 8192, 128
	seqCond    = 10
)

var seqTall = &workload{
	name:    wSeqTall,
	why:     "internal/lin kernels do over 90 % of the work and no transport, serve or plan code runs: a kernel change must show here",
	clients: 1,
	stride:  8,
	warmups: 2,
	setup: func(e *env) (instance, error) {
		return &seqTallInst{a: wellConditioned(seqM, seqN, seqCond, e.seed)}, nil
	},
}

type seqTallInst struct {
	a *cacqr.Dense
	// Largest verified errors, for root.orth_err_max / root.resid_max.
	orthMax, residMax float64
}

type qrOut struct{ q, r *cacqr.Dense }

func (s *seqTallInst) op(int) (any, error) {
	q, r, err := cacqr.CholeskyQR2(s.a)
	return qrOut{q, r}, err
}

func (s *seqTallInst) check(_ int, out any) error {
	o := out.(qrOut)
	orth, resid, err := checkDenseQR(s.a, o.q, o.r, 0)
	s.orthMax, s.residMax = math.Max(s.orthMax, orth), math.Max(s.residMax, resid)
	return err
}

func (s *seqTallInst) close() {}

// cholQRStages replays core.CholeskyQR's three kernel calls on a, each
// under its own span, and returns Q for the next pass.
func cholQRStages(t *traceRun, parent int, a *lin.Matrix) (*lin.Matrix, error) {
	var w, y *lin.Matrix
	t.rec.do("lin.syrk", parent, func() { w = lin.SyrkNewParallel(0, a) })
	err := t.rec.timed("lin.cholinv", parent, func() (err error) { _, y, err = lin.CholInv(w); return err })
	if err != nil {
		return nil, err
	}
	q := a.Clone()
	t.rec.do("lin.trmm", parent, func() { lin.TrmmParallel(0, lin.Right, lin.Lower, true, y, q) })
	return q, nil
}

func (s *seqTallInst) layers(t *traceRun) error {
	a := asLin(s.a)
	err := t.each(5, func(int) error {
		t.rootOp()
		runtime.GC()
		if err := t.rec.timed("core.cqr2", 0, func() error { _, _, err := core.CholeskyQR2(a, 0); return err }); err != nil {
			return err
		}
		runtime.GC()
		if err := t.rec.timed("core.cqr2_w1", 0, func() error { _, _, err := core.CholeskyQR2(a, 1); return err }); err != nil {
			return err
		}
		runtime.GC()
		replay := t.rec.begin("replay.cqr2", 0)
		q1, err := cholQRStages(t, replay, a)
		if err == nil {
			_, err = cholQRStages(t, replay, q1)
		}
		t.rec.end(replay)
		if err != nil {
			return err
		}
		t.rec.do("lin.syrk_w1", 0, func() { lin.SyrkNewParallel(1, a) })
		t.rec.do("lin.syrk_wn", 0, func() { lin.SyrkNewParallel(runtime.NumCPU(), a) })
		return nil
	})
	if err != nil {
		return err
	}
	p50 := t.opP50()
	syrk := t.setMed("lin.syrk_s", "lin.syrk")
	cholinv := t.setMed("lin.cholinv_s", "lin.cholinv")
	trmm := t.setMed("lin.trmm_s", "lin.trmm")
	cqr2 := t.setMed("core.cqr2_s", "core.cqr2")
	t.setMed("core.cqr2_w1_s", "core.cqr2_w1")
	n := len(t.rec.durations("core.cqr2"))
	t.set("core.cqr2_self_s", cqr2-2*(syrk+cholinv+trmm), n)
	t.set("root.copy_s", p50-cqr2, n)
	t.set("root.gflops_hh", float64(lin.HouseholderQRFlops(seqM, seqN))/p50/1e9, n)
	syrkGF := float64(lin.SyrkFlops(seqM, seqN)) / syrk / 1e9
	t.set("lin.syrk_gflops", syrkGF, n)
	// TRMM by a triangular factor touches half of the n×n operand: m·n².
	t.set("lin.trmm_gflops", float64(lin.TrsmFlops(seqM, seqN))/trmm/1e9, n)
	peak := peakGflops()
	t.set("lin.peak_gflops", peak, 1)
	t.set("lin.syrk_pct_peak", 100*syrkGF/peak, n)
	t.set("lin.par_speedup", t.rec.med("lin.syrk_w1")/t.rec.med("lin.syrk_wn"), n)
	t.set("lin.flops_per_op", float64(lin.CQR2Flops(seqM, seqN)), 0)
	t.set("root.orth_err_max", s.orthMax, len(t.samples))
	t.set("root.resid_max", s.residMax, len(t.samples))
	return nil
}

var probeSink float64

// peakGflops is the in-suite ceiling the kernel rates are set against:
// eight independent scalar multiply-add chains per core on every core
// at once, the best a pure-Go kernel (no assembly, no vector
// instructions) can reach on this machine in this run.
func peakGflops() float64 {
	const iters = 20_000_000
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
			const a, b = 0.999999, 1e-7
			for i := 0; i < iters; i++ {
				x0 = x0*a + b
				x1 = x1*a + b
				x2 = x2*a + b
				x3 = x3*a + b
				x4 = x4*a + b
				x5 = x5*a + b
				x6 = x6*a + b
				x7 = x7*a + b
			}
			mu.Lock()
			probeSink += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(workers) * iters * 8 * 2 / time.Since(start).Seconds() / 1e9
}
