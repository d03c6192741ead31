package main

import (
	"context"
	"fmt"

	cacqr "cacqr"
	"cacqr/internal/cfr3d"
	"cacqr/internal/core"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
	"cacqr/internal/obs"
	"cacqr/internal/transport"
)

// gridShape is one CA-CQR2 job: an m×n matrix on a c×d×c grid.
type gridShape struct{ m, n, c, d int }

func (g gridShape) procs() int { return g.c * g.d * g.c }

func (g gridShape) spec() cacqr.GridSpec { return cacqr.GridSpec{C: g.c, D: g.d} }

// stager brackets one pipeline stage of a rank body.
type stager func(name string, f func() error) error

func plainStage(_ string, f func() error) error { return f() }

// barrierStage lines every rank up at each stage boundary, so that the
// span rank 0 records is the stage's own time and not the wait for a
// rank still in the previous stage. rec is non-nil on rank 0 only.
func barrierStage(p transport.Proc, rec *recorder, parent int) stager {
	return func(name string, f func() error) error {
		if err := p.World().Barrier(); err != nil {
			return err
		}
		if rec == nil {
			return f()
		}
		return rec.timed(name, parent, f)
	}
}

// gridBody is one rank's share of FactorizeOnGrid, stage by stage: the
// same calls, in the same order, as the grid variant of cacqr's rank
// body, written out here so that each call into dist and core can sit
// under a benchmark-owned span. global is read on rank 0 only.
func gridBody(p transport.Proc, sh gridShape, global *lin.Matrix, stage stager) (q, r *lin.Matrix, err error) {
	g, err := grid.New(p.World(), sh.c, sh.d)
	if err != nil {
		return nil, nil, err
	}
	var blk *lin.Matrix
	err = stage("dist.scatter", func() error {
		var root *lin.Matrix
		var flat []float64
		if g.Z == 0 {
			if g.Slice.Index() == 0 {
				root = global
			}
			ad, err := dist.Scatter(g.Slice, 0, root, sh.m, sh.n, sh.d, sh.c)
			if err != nil {
				return err
			}
			flat = dist.Flatten(ad.Local)
		}
		flat, err := g.ZComm.Bcast(0, flat)
		if err != nil {
			return err
		}
		blk, err = dist.Unflatten(sh.m/sh.d, sh.n/sh.c, flat)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var qL, rL *lin.Matrix
	err = stage("core.cacqr2", func() (err error) {
		qL, rL, err = core.CACQR2(g, blk, sh.m, sh.n, core.Params{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = stage("dist.gather", func() (err error) {
		if q, err = dist.Gather(g.Slice, qL, sh.m, sh.n, sh.d, sh.c); err != nil {
			return err
		}
		r, err = dist.Gather(g.Cube.Slice, rL, sh.n, sh.n, sh.c, sh.c)
		return err
	})
	return q, r, err
}

// obsRanks turns the program's own tracer on for one run the way
// cacqr's runner does for a sampled request: one trace, a run span, and
// a rank span for each of the local ranks, each to be attached with
// transport.Traced. finish ends them all.
func obsRanks(tr *obs.Tracer, local int) (ranks []*obs.Span, finish func()) {
	trace, _ := tr.Start(context.Background(), "bench")
	run := trace.Root().Child("run")
	for i := 0; i < local; i++ {
		ranks = append(ranks, run.Rank(fmt.Sprintf("rank-%d", i)))
	}
	return ranks, func() {
		for _, r := range ranks {
			r.End()
		}
		run.End()
		trace.Finish()
	}
}

// Payloads of the collective probes. They are the sizes CA-CQR2 moves on
// the grid-sim grid (c=2, d=4, 2048×128): the Gram block allreduced over
// the two strided y-groups, the A block broadcast along x, and CFR3D's
// base-case block allgathered over a four-rank cube slice. grid-tcp
// probes the same sizes, so sim against wire is one subtraction.
const (
	probeCalls          = 100
	probeAllreduceWords = 64 * 64
	probeBcastWords     = 512 * 64
	probeAllgatherWords = 16 * 16
)

// collectives runs probeCalls back-to-back collectives of each kind on
// the first two (allreduce, bcast) and first four (allgather) ranks.
// rec is non-nil on rank 0, which records one span per kind.
func collectives(p transport.Proc, rec *recorder, prefix string) error {
	w := p.World()
	pair := w.Subgroup([]int{0, 1})
	quad := w.Subgroup([]int{0, 1, 2, 3})
	stage := barrierStage(p, rec, 0)
	err := stage(prefix+".allreduce", func() error {
		buf := make([]float64, probeAllreduceWords)
		for i := 0; pair != nil && i < probeCalls; i++ {
			if _, err := pair.Allreduce(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = stage(prefix+".bcast", func() error {
		var buf []float64
		if p.Rank() == 0 {
			buf = make([]float64, probeBcastWords)
		}
		for i := 0; pair != nil && i < probeCalls; i++ {
			if _, err := pair.Bcast(0, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return stage(prefix+".allgather", func() error {
		buf := make([]float64, probeAllgatherWords)
		for i := 0; quad != nil && i < probeCalls; i++ {
			if _, err := quad.Allgather(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// cubeKernels times MM3D and CFR3D on a 2×2×2 cube at the block sizes
// the grid-sim job hands them: Q = A·R⁻¹ with 512×64 and 64×64 local
// blocks, and the Cholesky of a 128×128 Gram matrix. a is 1024×128, b
// and spd are 128×128; ranks outside the cube only keep the barriers.
func cubeKernels(p transport.Proc, rec *recorder, a, b, spd *lin.Matrix) error {
	const e = 2
	cb, err := grid.NewCube(p.World(), e)
	if err != nil {
		return err
	}
	stage := barrierStage(p, rec, 0)
	var aL, bL, sL *dist.Matrix
	if cb != nil {
		if aL, err = dist.FromGlobal(a, e, e, cb.Y, cb.X); err != nil {
			return err
		}
		if bL, err = dist.FromGlobal(b, e, e, cb.Y, cb.X); err != nil {
			return err
		}
		if sL, err = dist.FromGlobal(spd, e, e, cb.Y, cb.X); err != nil {
			return err
		}
	}
	err = stage("mm3d.multiply", func() error {
		if cb == nil {
			return nil
		}
		_, err := mm3d.Multiply(cb, aL.Local, bL.Local, 1)
		return err
	})
	if err != nil {
		return err
	}
	return stage("cfr3d.factor", func() error {
		if cb == nil {
			return nil
		}
		_, err := cfr3d.Factor(cb, sL.Local, spd.Rows, cfr3d.Options{})
		return err
	})
}
