package main

import (
	"runtime"

	cacqr "cacqr"
	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
)

// grid-sim: the paper's CA-CQR2 on 16 simulated ranks.
var gridSimShape = gridShape{m: 2048, n: 128, c: 2, d: 4}

var gridSim = &workload{
	name:    wGridSim,
	why:     "the paper's CA-CQR2 on 16 simulated ranks: mm3d, cfr3d, dist and simmpi collectives dominate, per-rank kernels are tiny; a kernel change should not move it, a collectives change should",
	clients: 1,
	stride:  1,
	warmups: 2,
	setup: func(e *env) (instance, error) {
		sh := gridSimShape
		return &gridInst{sh: sh, a: wellConditioned(sh.m, sh.n, 10, e.seed)}, nil
	},
}

// gridInst is a FactorizeOnGrid workload; grid-tcp embeds it.
type gridInst struct {
	sh    gridShape
	a     *cacqr.Dense
	opts  cacqr.Options
	stats cacqr.CostStats // of the latest op
}

func (g *gridInst) op(int) (any, error) {
	res, err := cacqr.FactorizeOnGrid(g.a, g.sh.spec(), g.opts)
	if err != nil {
		return nil, err
	}
	g.stats = res.Stats
	return qrOut{res.Q, res.R}, nil
}

func (g *gridInst) check(_ int, out any) error {
	o := out.(qrOut)
	_, _, err := checkDenseQR(g.a, o.q, o.r, 0)
	return err
}

func (g *gridInst) close() {}

// How a replay of the grid job is observed.
const (
	replayPlain  = iota // nothing attached: the baseline the tracer is priced against
	replayStaged        // benchmark spans on rank 0, barriers between stages
	replayObs           // the program's own tracer on every rank
)

// simReplay runs gridBody on the simulator under the given mode; the
// stage spans of replayStaged hang under parent.
func (g *gridInst) simReplay(mode int, t *traceRun, parent int, tr *obs.Tracer) error {
	global := asLin(g.a)
	var ranks []*obs.Span
	if mode == replayObs {
		var finish func()
		ranks, finish = obsRanks(tr, g.sh.procs())
		defer finish()
	}
	_, err := simmpi.Run(g.sh.procs(), func(p *simmpi.Proc) error {
		var tp transport.Proc = p
		stage := plainStage
		switch mode {
		case replayObs:
			tp = transport.Traced(p, ranks[p.Rank()])
		case replayStaged:
			stage = barrierStage(p, rankZero(p, t.rec), parent)
		}
		_, _, err := gridBody(tp, g.sh, global, stage)
		return err
	})
	return err
}

// rankZero hands the recorder to rank 0 only: one rank's clock is the
// replay's clock, and the barriers make it the stage's.
func rankZero(p transport.Proc, rec *recorder) *recorder {
	if p.Rank() == 0 {
		return rec
	}
	return nil
}

// countMismatch runs core.CACQR2 on pre-distributed blocks and counts
// the α, β, γ fields that differ from internal/costmodel's prediction,
// the identity the repository's own tests assert. It must be 0.
func (g *gridInst) countMismatch() (float64, error) {
	sh, global := g.sh, asLin(g.a)
	st, err := simmpi.Run(sh.procs(), func(p *simmpi.Proc) error {
		gr, err := grid.New(p.World(), sh.c, sh.d)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(global, sh.d, sh.c, gr.Y, gr.X)
		if err != nil {
			return err
		}
		_, _, err = core.CACQR2(gr, ad.Local, sh.m, sh.n, core.Params{})
		return err
	})
	if err != nil {
		return 0, err
	}
	want, err := costmodel.CACQR2(sh.m, sh.n, costmodel.CACQRParams{C: sh.c, D: sh.d})
	if err != nil {
		return 0, err
	}
	var n float64
	for _, differ := range []bool{st.MaxMsgs != want.Msgs, st.MaxWords != want.Words, st.MaxFlops != want.TotalFlops()} {
		if differ {
			n++
		}
	}
	return n, nil
}

// overheadPct prices the program's tracer: how much longer the spans
// called on take than the spans called off, as a share of off.
func overheadPct(rec *recorder, off, on string) float64 {
	base := rec.med(off)
	return 100 * (rec.med(on) - base) / base
}

func (g *gridInst) layers(t *traceRun) error {
	sh := g.sh
	tr := obs.NewTracer(obs.TracerOptions{})
	cubeA := lin.RandomMatrix(sh.c*sh.m/sh.d, sh.n, t.e.seed+1)
	cubeB := lin.RandomMatrix(sh.n, sh.n, t.e.seed+2)
	spd := lin.RandomSPD(sh.n, t.e.seed+3)
	blk := lin.RandomMatrix(sh.m/sh.d, sh.n/sh.c, t.e.seed+4)
	err := t.each(5, func(int) error {
		t.rootOp()
		runtime.GC()
		replay := t.rec.begin("replay.grid", 0)
		err := g.simReplay(replayStaged, t, replay, tr)
		t.rec.end(replay)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := t.rec.timed("replay.obs_off", 0, func() error { return g.simReplay(replayPlain, t, 0, tr) }); err != nil {
			return err
		}
		runtime.GC()
		if err := t.rec.timed("replay.obs_on", 0, func() error { return g.simReplay(replayObs, t, 0, tr) }); err != nil {
			return err
		}
		err = t.rec.timed("simmpi.spawn", 0, func() error {
			_, err := simmpi.Run(sh.procs(), func(*simmpi.Proc) error { return nil })
			return err
		})
		if err != nil {
			return err
		}
		_, err = simmpi.Run(sh.procs(), func(p *simmpi.Proc) error {
			if err := collectives(p, rankZero(p, t.rec), "simmpi"); err != nil {
				return err
			}
			return cubeKernels(p, rankZero(p, t.rec), cubeA, cubeB, spd)
		})
		if err != nil {
			return err
		}
		x := lin.NewMatrix(sh.n/sh.c, sh.n/sh.c)
		t.rec.do("lin.gemm_local", 0, func() { lin.Gemm(true, false, 1, blk, blk, 0, x) })
		return nil
	})
	if err != nil {
		return err
	}
	spawn := t.setMed("simmpi.spawn_s", "simmpi.spawn")
	scatter := t.setMed("dist.scatter_s", "dist.scatter")
	cacqr2 := t.setMed("core.cacqr2_s", "core.cacqr2")
	gather := t.setMed("dist.gather_s", "dist.gather")
	n := len(t.rec.durations("replay.grid"))
	t.set("root.op_self_s", t.opP50()-spawn-scatter-cacqr2-gather, n)
	for _, c := range []string{"allreduce", "bcast", "allgather"} {
		t.set("simmpi."+c+"_s", t.rec.med("simmpi."+c)/probeCalls, n*probeCalls)
	}
	t.setMed("mm3d.multiply_s", "mm3d.multiply")
	t.setMed("cfr3d.factor_s", "cfr3d.factor")
	t.setMed("lin.gemm_local_s", "lin.gemm_local")
	t.set("simmpi.msgs_per_proc", float64(g.stats.Msgs), 0)
	t.set("simmpi.words_per_proc", float64(g.stats.Words), 0)
	t.set("simmpi.flops_per_proc", float64(g.stats.Flops), 0)
	mismatch, err := g.countMismatch()
	if err != nil {
		return err
	}
	t.set("costmodel.count_mismatch", mismatch, 0)
	t.set("obs.trace_overhead_pct", overheadPct(t.rec, "replay.obs_off", "replay.obs_on"), n)
	return nil
}
