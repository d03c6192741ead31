package perf

import (
	"context"
	"net"
	"strconv"
	"time"

	"cacqr"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
	"cacqr/internal/serve"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
	"cacqr/internal/transport/tcpnet"
)

// Suite returns the fixed benchmark suite. Every case is deterministic
// (fixed seeds and shapes); quick selects smaller CI-sized instances of
// the same workloads, so quick and full reports are internally
// consistent but not comparable with each other.
//
// The factorization shapes mirror the paper's experiment families:
// a tall-skinny 1D grid (c = 1), the tunable c × d × c grid, and the
// binary-tree TSQR baseline, alongside the sequential CholeskyQR2 and
// the local level-3 kernels everything above is built from.
func Suite(quick bool, workers int) []Case {
	// Kernel shapes: tall-output GEMM (the Q = A·R⁻¹ apply shape), the
	// Gram SYRK, and the triangular solve.
	gm, gn, gk := 1024, 1024, 64
	sm, sn := 4096, 256
	// Factorization shapes (m, n, grid):
	seqM, seqN := 16384, 128
	d1M, d1N, d1P := 16384, 64, 16
	d3M, d3N, d3C, d3D := 4096, 128, 2, 8
	tsM, tsN, tsP := 16384, 64, 16
	// Planner shapes: the overhead case plans a paper-scale shape (pure
	// arithmetic, no simulation); the auto case runs the planner plus
	// the planned factorization at the cacqr2-3d shape's scale.
	plM, plN, plP := 1<<20, 1<<10, 4096
	auP := d3C * d3D * d3C
	if quick {
		gm, gn, gk = 512, 512, 64
		sm, sn = 1024, 128
		seqM, seqN = 2048, 64
		d1M, d1N, d1P = 4096, 32, 8
		d3M, d3N, d3C, d3D = 1024, 64, 2, 4
		tsM, tsN, tsP = 4096, 32, 8
		plM, plN, plP = 1<<18, 256, 512
		auP = d3C * d3D * d3C
	}

	ga := lin.RandomMatrix(gm, gk, 201)
	gb := lin.RandomMatrix(gk, gn, 202)
	gc := lin.NewMatrix(gm, gn)
	sa := lin.RandomMatrix(sm, sn, 203)
	sc := lin.NewMatrix(sn, sn)
	ta := upperFromGram(sn, 204)
	tb := lin.RandomMatrix(sm, sn, 205)

	seqA := cacqr.RandomMatrix(seqM, seqN, 206)
	// The streaming pair for seq-cqr2: same matrix, factored out-of-core
	// in m/8 row panels with Q written to a dense sink. Its Flops column
	// is the stream model's total (two Gram passes and the Q pass:
	// 5mn² + (7/3)n³), so the ns/flop of the two rows is directly
	// comparable.
	stB := seqM / 8
	streamCost, err := cacqr.ModelStreamCQR2(seqM, seqN, stB, true, false)
	if err != nil {
		panic("perf: stream model rejected the suite shape: " + err.Error())
	}
	d1A := cacqr.RandomMatrix(d1M, d1N, 207)
	d3A := cacqr.RandomMatrix(d3M, d3N, 208)
	tsA := cacqr.RandomMatrix(tsM, tsN, 209)
	// The condition-estimator case measures what AutoFactorize pays per
	// request when no CondEst hint is given, on the expensive path: at
	// κ=1e10 the Gram route's Cholesky fails and the estimator runs its
	// Householder-QR fallback (2mn²) — the worst case a caller sees.
	// The shifted case is the stable three-pass fallback the
	// condition-aware router dispatches for κ ≳ 10⁷.
	ceA := lin.RandomWithCond(sm, sn, 1e10, 210)
	shA := cacqr.RandomWithCond(d1M, d1N, 1e10, 211)
	opts := cacqr.Options{Workers: workers}
	// Serving-layer fixtures: the internal plan-caching server for the
	// pure lookup case and the public server for the end-to-end case.
	// Batch windows are off — the suite measures lookup and execution
	// cost, not admission latency — and Measure's warm-up op populates
	// each cache before timing starts.
	planServer := serve.New(serve.Config{BatchWindow: -1})
	submitServer, err := cacqr.NewServer(cacqr.ServerOptions{Procs: auP, BatchWindow: -1, Options: opts})
	if err != nil {
		panic("perf: server options invalid by construction: " + err.Error())
	}
	// The traced twin of submitServer: every request sampled, a small
	// retention ring so the suite doesn't accumulate span trees.
	tracedOpts := opts
	tracedOpts.Tracer = cacqr.NewTracer(cacqr.TracerOptions{SampleEvery: 1, Retain: 4})
	tracedServer, err := cacqr.NewServer(cacqr.ServerOptions{Procs: auP, BatchWindow: -1, Options: tracedOpts})
	if err != nil {
		panic("perf: server options invalid by construction: " + err.Error())
	}
	// Throughput-mode fixtures: a flood of same-shape small QRs, driven
	// once as per-request Submits and once as one fused SubmitBatch. The
	// ratio of these two rows is the batched mode's throughput multiplier
	// (the CondEst hint routes both paths into the CQR2 family).
	nbB, bM, bN, bP := 256, 512, 32, 8
	if quick {
		nbB, bM, bN = 64, 256, 16
	}
	batchReqs := make([]cacqr.SubmitRequest, nbB)
	for i := range batchReqs {
		batchReqs[i] = cacqr.SubmitRequest{A: cacqr.RandomMatrix(bM, bN, int64(300+i)), Procs: bP, CondEst: 10}
	}
	batchServer, err := cacqr.NewServer(cacqr.ServerOptions{Procs: bP, BatchWindow: -1, Options: opts})
	if err != nil {
		panic("perf: server options invalid by construction: " + err.Error())
	}
	// Transport fixtures: the same 4-rank Allreduce once on the simulated
	// runtime and once across in-process TCP workers (loopback listeners
	// that live for the process). The pair prices the real-transport
	// overhead — framing, syscalls, goroutine handoff — against the
	// simulation's zero-cost data movement at identical charged traffic.
	arN, arP := 1<<16, 4
	if quick {
		arN = 1 << 14
	}
	arVec := make([]float64, arN)
	for i := range arVec {
		arVec[i] = float64(i%1024) / 1024
	}
	arBody := func(p transport.Proc) error {
		_, err := p.World().Allreduce(arVec)
		return err
	}
	arAddrs := make([]string, arP-1)
	for i := range arAddrs {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			panic("perf: transport fixture listen: " + lerr.Error())
		}
		arAddrs[i] = ln.Addr().String()
		go tcpnet.Serve(ln, func(p transport.Proc, _ []byte) error { return arBody(p) })
	}
	arCoord := &tcpnet.Coordinator{Workers: arAddrs}

	nameSz := func(base string, dims ...int) string {
		s := base
		for _, d := range dims {
			s += "-" + itoa(d)
		}
		return s
	}

	return []Case{
		{
			Name:  nameSz("gemm-blocked", gm, gn, gk),
			Flops: lin.GemmFlops(gm, gn, gk),
			Run: func() (Stats, error) {
				lin.Gemm(false, false, 1, ga, gb, 0, gc)
				return Stats{}, nil
			},
		},
		{
			Name:  nameSz("gemm-parallel", gm, gn, gk),
			Flops: lin.GemmFlops(gm, gn, gk),
			Run: func() (Stats, error) {
				lin.GemmParallel(0, false, false, 1, ga, gb, 0, gc)
				return Stats{}, nil
			},
		},
		{
			Name:  nameSz("syrk-parallel", sm, sn),
			Flops: lin.SyrkFlops(sm, sn),
			Run: func() (Stats, error) {
				lin.SyrkParallel(0, 1, sa, 0, sc)
				return Stats{}, nil
			},
		},
		{
			Name:  nameSz("trsm-parallel", sm, sn),
			Flops: lin.TrsmFlops(sm, sn),
			Run: func() (Stats, error) {
				x := tb.Clone()
				lin.TrsmParallel(0, lin.Right, lin.Upper, false, ta, x)
				return Stats{}, nil
			},
		},
		{
			Name:  nameSz("seq-cqr2", seqM, seqN),
			Flops: lin.CQR2Flops(seqM, seqN),
			Run: func() (Stats, error) {
				_, _, err := cacqr.CholeskyQR2(seqA)
				return Stats{}, err
			},
		},
		{
			// In-core vs out-of-core at the same shape: this row versus
			// seq-cqr2 is the streaming tax — three passes over the source
			// and one replayed triangular product — paid for a peak
			// resident footprint of three panels' worth plus O(n²) instead of
			// the whole matrix.
			Name:  nameSz("stream-cqr2", seqM, seqN) + "-b" + itoa(stB),
			Flops: streamCost.TotalFlops(),
			Run: func() (Stats, error) {
				_, err := cacqr.FactorizeStreaming(
					cacqr.SourceFromDense(seqA), cacqr.SinkToDense(),
					cacqr.Options{Workers: workers, PanelRows: stB})
				return Stats{}, err
			},
		},
		{
			Name:  nameSz("cacqr2-1d", d1M, d1N) + "-p" + itoa(d1P),
			Flops: lin.CQR2Flops(d1M, d1N),
			Run: func() (Stats, error) {
				res, err := cacqr.FactorizeOnGrid(d1A, cacqr.GridSpec{C: 1, D: d1P}, opts)
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			Name:  nameSz("cacqr2-3d", d3M, d3N) + "-c" + itoa(d3C) + "-d" + itoa(d3D),
			Flops: lin.CQR2Flops(d3M, d3N),
			Run: func() (Stats, error) {
				res, err := cacqr.FactorizeOnGrid(d3A, cacqr.GridSpec{C: d3C, D: d3D}, opts)
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			Name:  nameSz("tsqr", tsM, tsN) + "-p" + itoa(tsP),
			Flops: lin.HouseholderQRFlops(tsM, tsN),
			Run: func() (Stats, error) {
				res, err := cacqr.FactorizeTSQR(tsA, tsP, 0, opts)
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			// The condition-aware router's fallback: distributed shifted
			// CholeskyQR3 at the 1D shape and rank count, on an input
			// plain CQR2 cannot factor (κ=1e10). ~1.5× the cacqr2-1d
			// row's flops is the price of unconditional-ish stability.
			Name:  nameSz("shifted-cqr3", d1M, d1N) + "-p" + itoa(d1P),
			Flops: 3 * lin.CQR2Flops(d1M, d1N) / 2,
			Run: func() (Stats, error) {
				res, err := cacqr.FactorizeShifted1D(shA, d1P, opts)
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			// Condition-estimator overhead on the ill-conditioned path:
			// the Gram SYRK + 50 power iterations, then the
			// Householder-QR fallback once the Gram Cholesky fails.
			Name:  nameSz("cond-estimate", sm, sn),
			Flops: lin.SyrkFlops(sm, sn) + lin.HouseholderQRFlops(sm, sn),
			Run: func() (Stats, error) {
				lin.EstimateCond(ceA, 50)
				return Stats{}, nil
			},
		},
		{
			// Planner overhead: enumerate + rank every variant and grid
			// for a paper-scale shape. Pure cost-model arithmetic — this
			// is what a future serving layer would pay per request.
			Name: nameSz("plan-grid", plM, plN) + "-p" + itoa(plP),
			Run: func() (Stats, error) {
				_, err := cacqr.PlanGrid(plM, plN, plP, cacqr.Options{})
				return Stats{}, err
			},
		},
		{
			// Planned vs fixed grid: AutoFactorize at the cacqr2-3d
			// case's shape and rank count, so the two rows' ns/op and
			// communication can be compared directly in the report.
			Name:  nameSz("cacqr2-auto", d3M, d3N) + "-p" + itoa(auP),
			Flops: lin.CQR2Flops(d3M, d3N),
			Run: func() (Stats, error) {
				res, err := cacqr.AutoFactorize(d3A, auP, opts)
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			// Fresh planning per request: what a serving layer without a
			// plan cache would pay on every arrival of this shape — the
			// same enumeration the plan-grid case times, at the serving
			// layer's κ-bucketed request.
			Name: nameSz("serve-plan-fresh", plM, plN) + "-p" + itoa(plP),
			Run: func() (Stats, error) {
				_, err := plan.Best(plan.Bucketed(plan.Request{M: plM, N: plN, Procs: plP}))
				return Stats{}, err
			},
		},
		{
			// The cached path for the identical request: one LRU lookup
			// through internal/serve (the warm-up op populates the
			// cache). The fresh-vs-cached ratio of these two rows is the
			// serving layer's per-request planning amortization.
			Name: nameSz("serve-plan-cached", plM, plN) + "-p" + itoa(plP),
			Run: func() (Stats, error) {
				_, _, err := planServer.Do(context.Background(), plan.Request{M: plM, N: plN, Procs: plP}, nil)
				return Stats{}, err
			},
		},
		{
			// End to end through the public server at the cacqr2-auto
			// case's shape and budget: Submit pays the per-request
			// condition estimate and the factorization, but answers the
			// plan from cache — compare with the cacqr2-auto row, which
			// re-plans every request.
			Name:  nameSz("serve-submit-untraced", d3M, d3N) + "-p" + itoa(auP),
			Flops: lin.CQR2Flops(d3M, d3N),
			Run: func() (Stats, error) {
				res, err := submitServer.Submit(cacqr.SubmitRequest{A: d3A})
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			// The identical request through a server whose tracer samples
			// every request: condest/plan/gate/execute stages, per-rank
			// spans, per-collective spans, metrics aggregation. Against
			// serve-submit-untraced this row prices full instrumentation;
			// the untraced row against its own baseline gates that the
			// nil-tracer fast path stays free.
			Name:  nameSz("serve-submit-traced", d3M, d3N) + "-p" + itoa(auP),
			Flops: lin.CQR2Flops(d3M, d3N),
			Run: func() (Stats, error) {
				res, err := tracedServer.Submit(cacqr.SubmitRequest{A: d3A})
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: res.Stats.Msgs, Words: res.Stats.Words}, nil
			},
		},
		{
			// The throughput-mode baseline: the same flood of small QRs,
			// one Submit per request — each paying its own plan-cache
			// lookup, gate admission, and goroutine-pool spin-up.
			Name:  nameSz("serve-sequential-submits", nbB, bM, bN),
			Flops: int64(nbB) * lin.CQR2Flops(bM, bN),
			Run: func() (Stats, error) {
				for i := range batchReqs {
					if _, err := batchServer.Submit(batchReqs[i]); err != nil {
						return Stats{}, err
					}
				}
				return Stats{}, nil
			},
		},
		{
			// The fused path for the identical flood: one SubmitBatch —
			// one plan resolution and one strided BatchSYRK/BatchGEMM
			// sweep per CholeskyQR pass for the whole batch. This row
			// versus serve-sequential-submits is the ISSUE's ≥2×
			// throughput acceptance gate.
			Name:  nameSz("serve-batch-fused", nbB, bM, bN),
			Flops: int64(nbB) * lin.CQR2Flops(bM, bN),
			Run: func() (Stats, error) {
				for _, it := range batchServer.SubmitBatch(batchReqs) {
					if it.Err != nil {
						return Stats{}, it.Err
					}
				}
				return Stats{}, nil
			},
		},
		{
			// One 4-rank Allreduce on the simulated runtime: the charged
			// traffic is model cost only, data never moves.
			Name: nameSz("transport-sim-allreduce", arN) + "-p" + itoa(arP),
			Run: func() (Stats, error) {
				st, err := simmpi.Run(arP, func(p *simmpi.Proc) error { return arBody(p) })
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: st.MaxMsgs, Words: st.MaxWords}, nil
			},
		},
		{
			// The identical Allreduce across TCP workers: same charged
			// traffic, but the vector really crosses sockets — this row
			// versus transport-sim-allreduce is the per-collective price
			// of the real transport.
			Name: nameSz("transport-tcp-allreduce", arN) + "-p" + itoa(arP),
			Run: func() (Stats, error) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				st, err := arCoord.Run(ctx, func(int) []byte { return nil }, arBody)
				if err != nil {
					return Stats{}, err
				}
				return Stats{Msgs: st.MaxMsgs, Words: st.MaxWords, Bytes: st.MaxBytes}, nil
			},
		},
	}
}

// upperFromGram builds a well-conditioned n×n upper-triangular solve
// target (the Cholesky factor of a Gram matrix plus a diagonal shift).
func upperFromGram(n int, seed int64) *lin.Matrix {
	t := lin.RandomMatrix(n, n, seed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				v := t.At(i, j)
				if v < 0 {
					v = -v
				}
				t.Set(i, j, 2+v)
			case j < i:
				t.Set(i, j, 0)
			default:
				t.Set(i, j, t.At(i, j)*0.5/float64(n))
			}
		}
	}
	return t
}

func itoa(v int) string { return strconv.Itoa(v) }
