package cacqr

// The one execution path. Every entry point — FactorizeOnGrid,
// FactorizePlan, AutoFactorize, FactorizeStreaming and the
// Server's Submit family — describes its run as a job (newJob: a
// plan.Plan plus the shape and the run knobs, fully checked before a
// rank starts or a worker is dialled) and hands it to execute with a
// panel source and an optional Q sink. execute streams a stream-cqr2 job
// through internal/stream and runs every other variant's rank body
// (jobBody, the only place a variant selects an algorithm) on the
// transport the Options chose: the simulated goroutine runtime (default
// — exact α-β-γ accounting) or real OS worker processes over TCP
// (internal/transport/tcpnet — measured traffic and wall-clock).

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/pgeqrf"
	"cacqr/internal/plan"
	"cacqr/internal/simmpi"
	"cacqr/internal/stream"
	"cacqr/internal/transport"
	"cacqr/internal/transport/tcpnet"
	"cacqr/internal/tsqr"
)

// Transport selects how the distributed entry points execute. The zero
// value of Options (a nil *Transport) means the simulated runtime.
type Transport struct {
	tcp     bool
	workers []string
}

// SimTransport runs the job on the simulated goroutine runtime — one
// goroutine per rank, exact α-β-γ cost accounting. This is the default.
func SimTransport() *Transport { return &Transport{} }

// TCPTransport runs the job across real OS processes: the calling
// process acts as rank 0 and each worker address (a `cacqrd worker`
// listener, or any process inside ServeWorker) hosts one further rank.
// A job on np ranks uses the first np−1 workers; fewer available
// workers than ranks is an error. The workers dial rank 0 back on
// 127.0.0.1, so they must run on the calling process's host. Costs are
// measured, not modeled: Msgs/Words count actual traffic, Bytes counts
// raw wire bytes.
func TCPTransport(workers ...string) *Transport {
	return &Transport{tcp: true, workers: append([]string(nil), workers...)}
}

func (t *Transport) isTCP() bool { return t != nil && t.tcp }

// job is the one description of a run, built by every entry point and
// executed by every rank — local goroutine or remote process: the plan
// (the paper's legend tuple or one of its comparison rows: Variant, C, D,
// Procs, PanelWidth, InverseDepth, BaseSize) plus the matrix shape and
// the run knobs. The exported fields are what gob ships to a TCP worker;
// the unexported ones configure the launching process only and never
// cross the wire.
type job struct {
	plan.Plan
	M, N    int
	Workers int

	transport *Transport
	timeout   time.Duration
	condEst   float64 // routing hint: beyond CQR2's regime a streamed run starts on the shifted ladder
}

// newJob checks a run completely — options, shape, and through
// plan.Check the plan's extents against the shape — and describes it as
// a job. Everything that can be rejected without the matrix values is
// rejected here, before a rank goroutine starts or a worker is dialled.
// Check derives Procs where the plan has a grid, so a hand-built plan
// need only name its variant and extents.
func newJob(m, n int, p plan.Plan, opts Options) (job, error) {
	if err := checkOptions(opts); err != nil {
		return job{}, err
	}
	if err := checkShape(m, n); err != nil {
		return job{}, err
	}
	p, err := plan.Check(m, n, p)
	if err != nil {
		return job{}, fmt.Errorf("cacqr: %w", err)
	}
	if tr := opts.Transport; tr.isTCP() && len(tr.workers) < p.Procs-1 {
		return job{}, fmt.Errorf("cacqr: job needs %d ranks but the TCP transport has a coordinator plus only %d workers", p.Procs, len(tr.workers))
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 10 * time.Minute
	}
	return job{
		Plan: p, M: m, N: n, Workers: opts.Workers,
		transport: opts.Transport, timeout: timeout, condEst: opts.CondEst,
	}, nil
}

// execute is the executor under every entry point: it runs j on the
// matrix behind src and returns the factors with the measured cost. A
// stream-cqr2 job hands src to the out-of-core driver panel by panel;
// every other variant needs the matrix resident, runs its rank body on
// the job's transport, and holds Q in memory, so Result.Q is always set.
// sink, when non-nil, receives Q as well (and for a streamed run is the
// only way to get one: nil skips the Q pass). ctx cancels a run in
// flight — a scan of src stops at its next panel — and carries the
// request's trace span, if any.
func execute(ctx context.Context, j job, src stream.Source, sink *MatrixSink) (*Result, error) {
	rs := &runSource{Source: src, ctx: ctx}
	if j.Variant == plan.StreamCQR2 {
		return executeStream(ctx, j, rs, sink)
	}
	global, err := resident(rs)
	if err != nil {
		return nil, err
	}
	var q, r *lin.Matrix
	emit := func(qG, rG *lin.Matrix) { q, r = qG, rG }
	run := runSim
	if j.transport.isTCP() {
		run = runTCP
	}
	st, err := run(ctx, j, global, emit)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if err := sink.put(q); err != nil {
			return nil, err
		}
	}
	return &Result{
		Q: fromLin(q),
		R: fromLin(r),
		Stats: CostStats{
			Msgs: st.MaxMsgs, Words: st.MaxWords, Flops: st.MaxFlops,
			Bytes: st.MaxBytes, Time: st.Time,
		},
	}, nil
}

// resident returns the whole matrix behind src: a resident source's own
// matrix, which the run only reads, or a drained copy of a streamed one.
func resident(src *runSource) (*lin.Matrix, error) {
	if ds, ok := src.Source.(*stream.DenseSource); ok {
		return ds.Matrix(), nil
	}
	m, n := src.Dims()
	if err := src.Reset(); err != nil {
		return nil, err
	}
	snk := stream.NewDenseSink(m, n)
	if err := stream.Drain(src, snk, 0); err != nil {
		return nil, err
	}
	return snk.Matrix(), nil
}

// localInput stages rank's input block of global. The grid variants
// return nil: they scatter from rank 0 through the transport itself,
// exactly as a cluster would load the matrix.
func (j job) localInput(global *lin.Matrix, rank int) (*lin.Matrix, error) {
	switch j.Variant {
	case plan.CACQR2, plan.PanelCACQR2, plan.ShiftedCQR3:
		return nil, nil
	case plan.PGEQRF:
		return pgeqrf.LocalBlock(global, rank, j.D, j.C, j.PanelWidth)
	default:
		rows := j.M / j.Procs
		return global.View(rank*rows, 0, rows, j.N).Clone(), nil
	}
}

// jobPayload is the gob blob shipped to a TCP worker: the job plus the
// rank's staged input block (nil for the grid variants).
type jobPayload struct {
	Job   job
	Local *lin.Matrix
}

func encodeJobPayload(j job, local *lin.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(jobPayload{Job: j, Local: local}); err != nil {
		return nil, fmt.Errorf("cacqr: encoding worker payload: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeJobPayload reads what arrived from outside the process, so the
// block is checked before a kernel indexes it: a compact matrix whose
// storage is exactly its shape.
func decodeJobPayload(payload []byte) (job, *lin.Matrix, error) {
	var pl jobPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pl); err != nil {
		return job{}, nil, fmt.Errorf("cacqr: bad worker payload: %w", err)
	}
	if a := pl.Local; a != nil && (a.Rows < 0 || a.Cols < 0 || a.Stride != a.Cols || len(a.Data) != a.Rows*a.Cols) {
		return job{}, nil, fmt.Errorf("cacqr: bad worker payload: %dx%d block with stride %d over %d values", a.Rows, a.Cols, a.Stride, len(a.Data))
	}
	return pl.Job, pl.Local, nil
}

// jobBody returns one rank's share of j — the single place a variant
// selects an algorithm, behind every execution context: each simulated
// rank, the TCP coordinator (rank 0), and each TCP worker.
//
// local is the rank's staged input block (nil to derive it from
// globalAtRoot, or for the grid variants, which scatter through the
// transport). globalAtRoot is the full matrix where present — every
// simulated rank shares the closure view, the TCP coordinator holds its
// own; TCP workers have neither. out, when non-nil, receives the
// gathered global factors on rank 0.
func jobBody(j job, local *lin.Matrix, globalAtRoot *lin.Matrix, out func(q, r *lin.Matrix)) func(p transport.Proc) error {
	return func(p transport.Proc) error {
		if local == nil && globalAtRoot != nil {
			var err error
			local, err = j.localInput(globalAtRoot, p.Rank())
			if err != nil {
				return err
			}
		}
		emit := func(q, r *lin.Matrix) {
			if out != nil && p.Rank() == 0 {
				out(q, r)
			}
		}
		m, n := j.M, j.N
		switch j.Variant {
		case plan.CACQR2, plan.PanelCACQR2, plan.ShiftedCQR3:
			g, err := grid.New(p.World(), j.C, j.D)
			if err != nil {
				return err
			}
			// Scatter from the grid's rank 0 across slice z=0, then
			// replicate across depth: the faithful cluster loading path.
			var rootGlobal *lin.Matrix
			if g.Slice.Index() == 0 && g.Z == 0 {
				rootGlobal = globalAtRoot
			}
			var blk *lin.Matrix
			if g.Z == 0 {
				ad, err := dist.Scatter(g.Slice, 0, rootGlobal, m, n, j.D, j.C)
				if err != nil {
					return err
				}
				blk = ad.Local
			}
			if blk, err = dist.Bcast(g.ZComm, 0, blk, nil, m/j.D, n/j.C); err != nil {
				return err
			}
			prm := core.Params{InverseDepth: j.InverseDepth, BaseSize: j.BaseSize, Workers: j.Workers}
			var qL, rL *lin.Matrix
			switch j.Variant {
			case plan.PanelCACQR2:
				qL, rL, err = core.PanelCACQR2(g, blk, m, n, j.PanelWidth, prm)
			case plan.ShiftedCQR3:
				qL, rL, err = core.ShiftedCACQR3(g, blk, m, n, prm)
			default:
				qL, rL, err = core.CACQR2(g, blk, m, n, prm)
			}
			if err != nil {
				return err
			}
			// Only rank 0 emits, so only the slice that holds it gathers
			// Q, and only its subcube's slice gathers R; rank 0 is member
			// 0 of both, where dist.Gather assembles the global factor.
			var qG, rG *lin.Matrix
			if g.Z == 0 {
				if qG, err = dist.Gather(g.Slice, qL, m, n, j.D, j.C); err != nil {
					return err
				}
				if g.Group == 0 {
					if rG, err = dist.Gather(g.Cube.Slice, rL, n, n, j.C, j.C); err != nil {
						return err
					}
				}
			}
			emit(qG, rG)
			return nil

		case plan.TSQR:
			var qL, rL *lin.Matrix
			var err error
			if j.PanelWidth > 0 {
				qL, rL, err = tsqr.BlockedFactor(p.World(), local, m, n, j.PanelWidth, j.Workers)
			} else {
				qL, rL, err = tsqr.Factor(p.World(), local, m, n, j.Workers)
			}
			if err != nil {
				return err
			}
			qG, err := dist.GatherRows(p.World(), qL, m, n)
			if err != nil {
				return err
			}
			emit(qG, rL)
			return nil

		case plan.PGEQRF:
			g, err := pgeqrf.NewGrid(p.World(), j.D, j.C)
			if err != nil {
				return err
			}
			am, err := pgeqrf.NewMatrixLocal(g, local, m, n, j.PanelWidth)
			if err != nil {
				return err
			}
			f, err := pgeqrf.Factor(am)
			if err != nil {
				return err
			}
			rG, err := f.GatherR()
			if err != nil {
				return err
			}
			// Explicit Q = Q·[Iₙ; 0]: apply the reflectors to this rank's
			// block of the identity's first n columns (rows are cyclic over
			// the pr process rows; process columns compute redundantly).
			mloc := am.Local.Rows
			e := lin.NewMatrix(mloc, n)
			for li := 0; li < mloc; li++ {
				if gi := li*j.D + g.Row; gi < n {
					e.Set(li, gi, 1)
				}
			}
			qL, err := f.ApplyQ(e)
			if err != nil {
				return err
			}
			// Process columns hold the same rows of Q; column 0, where rank 0
			// is member 0, gathers them: its ColComm is the pr × 1 cyclic
			// layout of Q's rows.
			var qG *lin.Matrix
			if g.Col == 0 {
				if qG, err = dist.Gather(g.ColComm, qL, m, n, j.D, 1); err != nil {
					return err
				}
			}
			if p.Rank() == 0 {
				lin.NormalizeSigns(qG, rG)
			}
			emit(qG, rG)
			return nil
		}
		return fmt.Errorf("cacqr: unknown job variant %q", j.Variant)
	}
}

// startRunSpans opens the trace structure of one distributed run under
// the span carried by ctx: a "run" child plus one kind-"rank" span per
// live local rank (liveRanks of them; TCP workers are remote and get
// theirs synthesized from counters post-run). When the request is
// untraced everything here is nil and the run pays nil checks only.
func startRunSpans(ctx context.Context, j job, transportName string, liveRanks int) (*obs.Span, []*obs.Span) {
	spans := make([]*obs.Span, j.Procs)
	run := obs.FromContext(ctx).Child("run")
	run.SetStr("transport", transportName)
	run.SetStr("variant", string(j.Variant))
	run.SetInt("procs", int64(j.Procs))
	for i := 0; i < liveRanks && i < len(spans); i++ {
		spans[i] = run.Rank(fmt.Sprintf("rank-%d", i))
	}
	return run, spans
}

// finishRunSpans closes the run's spans, attributing each rank its
// measured transport counters — msgs/words/flops in the paper's α-β-γ
// units, wire bytes on real backends — and the run its totals, so a
// trace's per-collective byte counts can be checked against
// transport.Counters.
func finishRunSpans(run *obs.Span, spans []*obs.Span, st *transport.Stats) {
	if st != nil {
		for i := range spans {
			// A nil slot is not "untraced" here but "remote rank": TCP
			// workers never produced a local span, so synthesize one from
			// the counters the coordinator collected (zero duration —
			// remote stage timings are not shipped back).
			//lint:ignore obssafety nil marks a remote rank needing a synthesized span, not the untraced path
			if spans[i] == nil && i < len(st.PerRank) {
				spans[i] = run.Rank(fmt.Sprintf("rank-%d", i))
			}
			if i < len(st.PerRank) {
				c := st.PerRank[i]
				spans[i].SetInt("msgs", c.Msgs)
				spans[i].SetInt("words", c.Words)
				spans[i].SetInt("flops", c.Flops)
				spans[i].SetInt("bytes", c.Bytes)
				spans[i].SetFloat("time", c.Time)
			}
		}
		run.SetInt("total_msgs", st.TotalMsgs)
		run.SetInt("total_words", st.TotalWords)
		run.SetInt("total_bytes", st.TotalBytes)
	}
	for _, sp := range spans {
		sp.End()
	}
	run.End()
}

// runSim executes j on the simulated runtime. ctx adds cancellation
// alongside the watchdog timeout; a span on it records the run, with
// every rank wrapped by transport.Traced so collectives and kernel
// stages land under per-rank spans.
func runSim(ctx context.Context, j job, global *lin.Matrix, out func(q, r *lin.Matrix)) (*transport.Stats, error) {
	run, rankSpans := startRunSpans(ctx, j, "sim", j.Procs)
	st, err := simmpi.RunWithOptions(j.Procs, simmpi.Options{Timeout: j.timeout, Cancel: ctx.Done()}, func(p *simmpi.Proc) error {
		return jobBody(j, nil, global, out)(transport.Traced(p, rankSpans[p.Rank()]))
	})
	finishRunSpans(run, rankSpans, st)
	if errors.Is(err, simmpi.ErrCanceled) && ctx.Err() != nil {
		err = ctx.Err()
	}
	return st, err
}

// runTCP executes j across real worker processes: this process is rank
// 0, the first np−1 configured workers host ranks 1..np−1. Input blocks
// ship inside each worker's job payload, out of band of the charged
// transport operations.
func runTCP(ctx context.Context, j job, global *lin.Matrix, out func(q, r *lin.Matrix)) (*transport.Stats, error) {
	np := j.Procs
	payloads := make([][]byte, np)
	for rank := 1; rank < np; rank++ {
		local, err := j.localInput(global, rank)
		if err != nil {
			return nil, err
		}
		payloads[rank], err = encodeJobPayload(j, local)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, j.timeout)
	defer cancel()
	// Only rank 0 runs in this process, so only it gets a live span;
	// worker ranks get theirs synthesized from the counters the
	// coordinator collects over the control connections.
	run, rankSpans := startRunSpans(ctx, j, "tcp", 1)
	coord := &tcpnet.Coordinator{Workers: j.transport.workers[:np-1], Sentinels: wireErrors}
	st, err := coord.Run(ctx,
		func(rank int) []byte { return payloads[rank] },
		func(p transport.Proc) error {
			return jobBody(j, nil, global, out)(transport.Traced(p, rankSpans[0]))
		})
	finishRunSpans(run, rankSpans, st)
	return st, err
}

// wireErrors are the sentinels a worker's error keeps across the TCP
// control connection — those a caller routes on, so that errors.Is
// answers alike whichever rank failed first. runTCP and ServeWorker
// hand tcpnet the same list.
var wireErrors = []error{ErrIllConditioned, lin.ErrNotPositiveDefinite, lin.ErrSingular}

// ServeWorker turns the calling process into a factorization worker: it
// accepts jobs on ln and runs each assigned rank until the listener is
// closed. This is the body of `cacqrd worker`; embedders can serve on a
// listener of their own. It returns nil when ln is closed.
func ServeWorker(ln net.Listener) error {
	return tcpnet.Serve(ln, func(p transport.Proc, payload []byte) error {
		j, local, err := decodeJobPayload(payload)
		if err != nil {
			return err
		}
		return jobBody(j, local, nil, nil)(p)
	}, wireErrors...)
}
