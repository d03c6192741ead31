package cacqr

// The shared execution path of every distributed entry point. Each
// Factorize* driver validates its shape, builds a wireJob describing the
// run, and hands it to runDistributed, which executes the same rank body
// on the transport the Options select: the simulated goroutine runtime
// (default — exact α-β-γ accounting) or real OS worker processes over
// TCP (internal/transport/tcpnet — measured traffic and wall-clock).

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
	"cacqr/internal/simmpi"
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
// workers than ranks is an error. Costs are measured, not modeled:
// Msgs/Words count actual traffic, Bytes counts raw wire bytes.
func TCPTransport(workers ...string) *Transport {
	return &Transport{tcp: true, workers: append([]string(nil), workers...)}
}

func (t *Transport) isTCP() bool { return t != nil && t.tcp }

// variant names the five distributed algorithms a wireJob can carry.
const (
	variantGrid      = "grid"
	variant1D        = "1d"
	variantShifted1D = "shifted1d"
	variantTSQR      = "tsqr"
	variantPGEQRF    = "pgeqrf"
)

// wireJob is the transport-independent description of one distributed
// factorization: enough for any rank — local goroutine or remote
// process — to run its share. Fields are exported for gob.
type wireJob struct {
	Variant string
	M, N    int

	Procs int // 1D family: rank count
	C, D  int // grid variant: the c×d×c spec

	PR, PC, NB int // pgeqrf: process grid and panel width

	PanelWidth   int // grid panel variant / blocked TSQR width
	InverseDepth int
	BaseSize     int
	Workers      int
}

// procs returns the job's rank count.
func (job wireJob) procs() int {
	switch job.Variant {
	case variantGrid:
		return job.C * job.D * job.C
	case variantPGEQRF:
		return job.PR * job.PC
	default:
		return job.Procs
	}
}

// localInput stages rank's input block for job. The grid variant
// returns nil: it scatters from rank 0 through the transport itself,
// exactly as a cluster would load it.
func localInput(job wireJob, global *lin.Matrix, rank int) (*lin.Matrix, error) {
	switch job.Variant {
	case variantGrid:
		return nil, nil
	case variantPGEQRF:
		return pgeqrf.LocalBlock(global, rank, job.PR, job.PC, job.NB)
	default:
		rows := job.M / job.Procs
		return global.View(rank*rows, 0, rows, job.N).Clone(), nil
	}
}

// jobPayload is the gob blob shipped to a TCP worker: the job spec plus
// the rank's staged input block (absent for the grid variant).
type jobPayload struct {
	Job        wireJob
	Rows, Cols int
	Data       []float64
}

func encodeJobPayload(job wireJob, local *lin.Matrix) ([]byte, error) {
	pl := jobPayload{Job: job}
	if local != nil {
		pl.Rows, pl.Cols = local.Rows, local.Cols
		pl.Data = dist.Flatten(local)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pl); err != nil {
		return nil, fmt.Errorf("cacqr: encoding worker payload: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeJobPayload(payload []byte) (wireJob, *lin.Matrix, error) {
	var pl jobPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pl); err != nil {
		return wireJob{}, nil, fmt.Errorf("cacqr: bad worker payload: %w", err)
	}
	var local *lin.Matrix
	if pl.Rows != 0 || pl.Cols != 0 {
		var err error
		local, err = dist.Unflatten(pl.Rows, pl.Cols, pl.Data)
		if err != nil {
			return wireJob{}, nil, fmt.Errorf("cacqr: bad worker payload: %w", err)
		}
	}
	return pl.Job, local, nil
}

// jobBody returns one rank's share of job — the single algorithm
// dispatch behind every execution context: each simulated rank, the TCP
// coordinator (rank 0), and each TCP worker.
//
// local is the rank's staged input block (nil to derive it from
// globalAtRoot, or for the grid variant, which scatters through the
// transport). globalAtRoot is the full matrix where present — every
// simulated rank shares the closure view, the TCP coordinator holds its
// own; TCP workers have neither. sink, when non-nil, receives the
// gathered global factors on rank 0.
func jobBody(job wireJob, local *lin.Matrix, globalAtRoot *lin.Matrix, sink func(q, r *lin.Matrix)) func(p transport.Proc) error {
	return func(p transport.Proc) error {
		if local == nil && job.Variant != variantGrid {
			var err error
			local, err = localInput(job, globalAtRoot, p.Rank())
			if err != nil {
				return err
			}
		}
		emit := func(q, r *lin.Matrix) {
			if sink != nil && p.Rank() == 0 {
				sink(q, r)
			}
		}
		m, n := job.M, job.N
		switch job.Variant {
		case variantGrid:
			g, err := grid.New(p.World(), job.C, job.D)
			if err != nil {
				return err
			}
			// Scatter from the grid's rank 0 across slice z=0, then
			// replicate across depth: the faithful cluster loading path.
			var rootGlobal *lin.Matrix
			if g.Slice.Index() == 0 && g.Z == 0 {
				rootGlobal = globalAtRoot
			}
			var ad *dist.Matrix
			if g.Z == 0 {
				ad, err = dist.Scatter(g.Slice, 0, rootGlobal, m, n, job.D, job.C)
				if err != nil {
					return err
				}
			}
			var flat []float64
			if g.Z == 0 {
				flat = dist.Flatten(ad.Local)
			}
			flat, err = g.ZComm.Bcast(0, flat)
			if err != nil {
				return err
			}
			blk, err := dist.Unflatten(m/job.D, n/job.C, flat)
			if err != nil {
				return err
			}
			ad = &dist.Matrix{M: m, N: n, PR: job.D, PC: job.C, Row: g.Y, Col: g.X, Local: blk}
			prm := core.Params{InverseDepth: job.InverseDepth, BaseSize: job.BaseSize, Workers: job.Workers}
			var qL, rL *lin.Matrix
			if job.PanelWidth > 0 {
				qL, rL, err = core.PanelCACQR2(g, ad.Local, m, n, job.PanelWidth, prm)
			} else {
				qL, rL, err = core.CACQR2(g, ad.Local, m, n, prm)
			}
			if err != nil {
				return err
			}
			// Only rank 0 emits, so only the slice that holds it gathers
			// Q, and only its subcube's slice gathers R; rank 0 is member
			// 0 of both, where dist.Gather assembles the global factor.
			var qG, rG *lin.Matrix
			if g.Z == 0 {
				if qG, err = dist.Gather(g.Slice, qL, m, n, job.D, job.C); err != nil {
					return err
				}
				if g.Group == 0 {
					if rG, err = dist.Gather(g.Cube.Slice, rL, n, n, job.C, job.C); err != nil {
						return err
					}
				}
			}
			emit(qG, rG)
			return nil

		case variant1D, variantShifted1D:
			var qL, rL *lin.Matrix
			var err error
			if job.Variant == variant1D {
				qL, rL, err = core.OneDCQR2(p.World(), local, m, n, job.Workers)
			} else {
				qL, rL, err = core.OneDShiftedCQR3(p.World(), local, m, n, job.Workers)
			}
			if err != nil {
				return err
			}
			qG, err := gatherQ(p, qL, m, n)
			if err != nil {
				return err
			}
			emit(qG, rL)
			return nil

		case variantTSQR:
			var qL, rL *lin.Matrix
			var err error
			if job.PanelWidth > 0 {
				qL, rL, err = tsqr.BlockedFactor(p.World(), local, m, n, job.PanelWidth, job.Workers)
			} else {
				qL, rL, err = tsqr.Factor(p.World(), local, m, n, job.Workers)
			}
			if err != nil {
				return err
			}
			qG, err := gatherQ(p, qL, m, n)
			if err != nil {
				return err
			}
			emit(qG, rL)
			return nil

		case variantPGEQRF:
			g, err := pgeqrf.NewGrid(p.World(), job.PR, job.PC)
			if err != nil {
				return err
			}
			am, err := pgeqrf.NewMatrixLocal(g, local, m, n, job.NB)
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
				if gi := li*job.PR + g.Row; gi < n {
					e.Set(li, gi, 1)
				}
			}
			qL, err := f.ApplyQ(e)
			if err != nil {
				return err
			}
			// Assemble the global Q: process column 0 contributes its rows,
			// everyone else zeros, and a world Allreduce replicates the sum
			// (the same output-path pattern as GatherR). Unlike the other
			// variants' rooted gathers this still builds an m×n zero-padded
			// contribution and result on every rank. It stays: PGEQRF is
			// the comparison baseline, its explicit-Q output path is
			// unmodeled (see FactorizePGEQRF), and rooting it would need a
			// row-cyclic assembly that nothing else uses.
			contrib := lin.NewMatrix(m, n)
			if g.Col == 0 {
				for li := 0; li < mloc; li++ {
					gi := li*job.PR + g.Row
					for j := 0; j < n; j++ {
						contrib.Set(gi, j, qL.At(li, j))
					}
				}
			}
			qFlat, err := g.World.Allreduce(dist.Flatten(contrib))
			if err != nil {
				return err
			}
			qG, err := dist.Unflatten(m, n, qFlat)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				lin.NormalizeSigns(qG, rG)
			}
			emit(qG, rG)
			return nil
		}
		return fmt.Errorf("cacqr: unknown job variant %q", job.Variant)
	}
}

// gatherQ assembles the global m×n Q on rank 0 (nil elsewhere) from each
// rank's row block over the 1D world communicator — the shared gather
// tail of the 1D execution paths (Factorize1D, FactorizeTSQR). Row
// blocks in rank order are the global matrix in row-major order, so the
// gathered buffer is wrapped as it is.
func gatherQ(p transport.Proc, qL *lin.Matrix, m, n int) (*lin.Matrix, error) {
	flat, err := p.World().Gather(0, dist.Flatten(qL))
	if err != nil || p.Rank() != 0 {
		return nil, err
	}
	return dist.Unflatten(m, n, flat)
}

// runTimeout resolves the Options.Timeout default shared by both
// transports.
func runTimeout(opts Options) time.Duration {
	if opts.Timeout == 0 {
		return 10 * time.Minute
	}
	return opts.Timeout
}

// runDistributed executes job on the transport Options select and
// assembles the Result. The callers have already validated shapes.
func runDistributed(job wireJob, global *lin.Matrix, opts Options) (*Result, error) {
	var q, r *lin.Matrix
	sink := func(qG, rG *lin.Matrix) { q, r = qG, rG }

	var st *transport.Stats
	var err error
	if opts.Transport.isTCP() {
		st, err = runTCP(job, global, opts, sink)
	} else {
		st, err = runSim(job, global, opts, sink)
	}
	if err != nil {
		return nil, err
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

// startRunSpans opens the trace structure of one distributed run under
// the span carried by opts.ctx: a "run" child plus one kind-"rank" span
// per live local rank (liveRanks of them; TCP workers are remote and
// get theirs synthesized from counters post-run). When the request is
// untraced everything here is nil and the run pays nil checks only.
func startRunSpans(opts Options, job wireJob, transportName string, liveRanks int) (*obs.Span, []*obs.Span) {
	spans := make([]*obs.Span, job.procs())
	run := obs.FromContext(opts.ctx).Child("run")
	run.SetStr("transport", transportName)
	run.SetStr("variant", job.Variant)
	run.SetInt("procs", int64(job.procs()))
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

// runSim executes job on the simulated runtime. A context on the
// Options adds cancellation alongside the watchdog timeout; a span on
// it records the run, with every rank wrapped by transport.Traced so
// collectives and kernel stages land under per-rank spans.
func runSim(job wireJob, global *lin.Matrix, opts Options, sink func(q, r *lin.Matrix)) (*transport.Stats, error) {
	sopts := simmpi.Options{Timeout: runTimeout(opts)}
	if opts.ctx != nil {
		sopts.Cancel = opts.ctx.Done()
	}
	run, rankSpans := startRunSpans(opts, job, "sim", job.procs())
	st, err := simmpi.RunWithOptions(job.procs(), sopts, func(p *simmpi.Proc) error {
		return jobBody(job, nil, global, sink)(transport.Traced(p, rankSpans[p.Rank()]))
	})
	finishRunSpans(run, rankSpans, st)
	if err != nil && errors.Is(err, simmpi.ErrCanceled) && opts.ctx != nil && opts.ctx.Err() != nil {
		err = opts.ctx.Err()
	}
	return st, err
}

// runTCP executes job across real worker processes: this process is
// rank 0, the first np−1 configured workers host ranks 1..np−1. Input
// blocks ship inside each worker's job payload, out of band of the
// charged transport operations.
func runTCP(job wireJob, global *lin.Matrix, opts Options, sink func(q, r *lin.Matrix)) (*transport.Stats, error) {
	np := job.procs()
	workers := opts.Transport.workers
	if len(workers) < np-1 {
		return nil, fmt.Errorf("cacqr: job needs %d ranks but the TCP transport has a coordinator plus only %d workers", np, len(workers))
	}
	payloads := make([][]byte, np)
	for rank := 1; rank < np; rank++ {
		local, err := localInput(job, global, rank)
		if err != nil {
			return nil, err
		}
		payloads[rank], err = encodeJobPayload(job, local)
		if err != nil {
			return nil, err
		}
	}
	local0, err := localInput(job, global, 0)
	if err != nil {
		return nil, err
	}
	parent := opts.ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, runTimeout(opts))
	defer cancel()
	// Only rank 0 runs in this process, so only it gets a live span;
	// worker ranks get theirs synthesized from the counters the
	// coordinator collects over the control connections.
	run, rankSpans := startRunSpans(opts, job, "tcp", 1)
	coord := &tcpnet.Coordinator{Workers: workers[:np-1]}
	st, err := coord.Run(ctx,
		func(rank int) []byte { return payloads[rank] },
		func(p transport.Proc) error {
			return jobBody(job, local0, global, sink)(transport.Traced(p, rankSpans[0]))
		})
	finishRunSpans(run, rankSpans, st)
	return st, err
}

// ServeWorker turns the calling process into a factorization worker: it
// accepts jobs on ln and runs each assigned rank until the listener is
// closed. This is the body of `cacqrd worker`; embedders can serve on a
// listener of their own. It returns nil when ln is closed.
func ServeWorker(ln net.Listener) error {
	return tcpnet.Serve(ln, func(p transport.Proc, payload []byte) error {
		job, local, err := decodeJobPayload(payload)
		if err != nil {
			return err
		}
		return jobBody(job, local, nil, nil)(p)
	})
}
