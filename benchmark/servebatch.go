package main

import (
	"fmt"
	"runtime"

	cacqr "cacqr"
	"cacqr/internal/core"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/plan"
	"cacqr/internal/serve"
)

// serve-batch: in-process throughput mode, one SubmitBatch of many
// small same-shape matrices per op.
const (
	batchItems       = 256
	batchM, batchN   = 512, 32
	batchCond        = 10 // the hint every item carries, so no κ estimate runs
	batchServerProcs = 8
)

var serveBatch = &workload{
	name:    wServeBatch,
	why:     "throughput mode: lin.Batch*, core.BatchedCQR2 and serve.DoBatch on 256 small items, the opposite shape from seq-tall, so a kernel change that helps one and costs the other shows",
	clients: 1,
	stride:  1,
	warmups: 2,
	setup: func(e *env) (instance, error) {
		srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: batchServerProcs})
		if err != nil {
			return nil, err
		}
		b := &serveBatchInst{srv: srv, reqs: make([]cacqr.SubmitRequest, batchItems)}
		for i := range b.reqs {
			b.reqs[i] = cacqr.SubmitRequest{A: cacqr.RandomMatrix(batchM, batchN, e.seed*1000+int64(i)), CondEst: batchCond}
		}
		return b, nil
	},
}

type serveBatchInst struct {
	srv  *cacqr.Server
	reqs []cacqr.SubmitRequest
}

func (b *serveBatchInst) op(int) (any, error) { return b.srv.SubmitBatch(b.reqs), nil }

func (b *serveBatchInst) check(_ int, out any) error {
	items := out.([]cacqr.BatchItem)
	if len(items) != len(b.reqs) {
		return fmt.Errorf("%d results for %d requests", len(items), len(b.reqs))
	}
	// Items are small: check them side by side, one core each.
	errs := make([]error, len(items))
	lin.BatchApply(0, len(items), func(i int) {
		if errs[i] = items[i].Err; errs[i] == nil {
			_, _, errs[i] = checkDenseQR(b.reqs[i].A, items[i].Result.Q, items[i].Result.R, 1)
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

func (b *serveBatchInst) close() { b.srv.Close() }

func (b *serveBatchInst) layers(t *traceRun) error {
	as := make([]*lin.Matrix, len(b.reqs))
	for i, r := range b.reqs {
		as[i] = asLin(r.A)
	}
	slab := lin.SlabFrom(as)
	gram := lin.NewSlab(batchItems, batchN, batchN)
	// Upper-triangular, well-conditioned factors for the TRSM probe.
	tri := lin.NewSlab(batchItems, batchN, batchN)
	for i := 0; i < batchItems; i++ {
		ti := tri.Item(i)
		for r := 0; r < batchN; r++ {
			ti.Set(r, r, 2)
			for c := r + 1; c < batchN; c++ {
				ti.Set(r, c, 1/float64(batchN))
			}
		}
	}
	rhs := lin.NewSlab(batchItems, batchM, batchN)
	out := lin.NewSlab(batchItems, batchM, batchN)

	traced, err := cacqr.NewServer(cacqr.ServerOptions{
		Procs:   batchServerProcs,
		Options: cacqr.Options{Tracer: obs.NewTracer(obs.TracerOptions{})},
	})
	if err != nil {
		return err
	}
	defer traced.Close()
	inner := serve.New(serve.Config{})
	defer inner.Close()
	preq := plan.Request{M: batchM, N: batchN, Procs: batchServerProcs, CondEst: batchCond}
	noop := func(plan.Plan) error { return nil }

	err = t.each(3, func(rep int) error {
		t.rootOp()
		runtime.GC()
		err := t.rec.timed("root.batch_traced", 0, func() error {
			for i, it := range traced.SubmitBatch(b.reqs) {
				if it.Err != nil {
					return fmt.Errorf("item %d: %w", i, it.Err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		runtime.GC()
		err = t.rec.timed("core.batched_cqr2", 0, func() error {
			_, _, errs := core.BatchedCQR2(as, 0)
			for i, err := range errs {
				if err != nil {
					return fmt.Errorf("item %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.rec.do("lin.batch_syrk", 0, func() { lin.BatchSYRK(0, 1, slab, 0, gram) })
		t.rec.do("lin.batch_gemm", 0, func() { lin.BatchGEMM(0, false, false, 1, slab, tri, 0, out) })
		copy(rhs.Data, slab.Data)
		t.rec.do("lin.batch_trsm", 0, func() { lin.BatchTRSM(0, lin.Right, lin.Upper, false, tri, rhs) })
		err = t.rec.timed("serve.dobatch", 0, func() error {
			_, _, err := inner.DoBatch(t.e.ctx, preq, batchItems, noop)
			return err
		})
		if err != nil {
			return err
		}
		// The same items one Submit at a time is ~1 s; a few
		// repetitions are enough for a ratio.
		if rep >= 3 {
			return nil
		}
		runtime.GC()
		return t.rec.timed("root.submit_loop", 0, func() error {
			for i, r := range b.reqs {
				if _, err := b.srv.Submit(r); err != nil {
					return fmt.Errorf("item %d: %w", i, err)
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	p50 := t.opP50()
	n := len(t.samples)
	fused := t.setMed("core.batched_cqr2_s", "core.batched_cqr2")
	t.setMed("lin.batch_syrk_s", "lin.batch_syrk")
	t.setMed("lin.batch_gemm_s", "lin.batch_gemm")
	t.setMed("lin.batch_trsm_s", "lin.batch_trsm")
	t.setMed("serve.dobatch_s", "serve.dobatch")
	t.set("root.batch_self_s", p50-fused, n)
	loop := t.setMed("root.submit_loop_s", "root.submit_loop")
	t.set("root.fuse_speedup", loop/p50, len(t.rec.durations("root.submit_loop")))
	t.set("root.items_per_s", batchItems/p50, n)
	t.set("obs.trace_overhead_pct", 100*(t.rec.med("root.batch_traced")-p50)/p50, n)
	return nil
}
