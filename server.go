package cacqr

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/plan"
	"cacqr/internal/serve"
	"cacqr/internal/stream"
)

// ErrOverloaded is returned by Submit/SubmitBatch when the server's
// pending-request bound (ServerOptions.MaxPending) is reached: the
// request was refused at admission — nothing was queued and nothing
// in flight was dropped — so the caller can shed load or retry with
// backoff.
var ErrOverloaded = serve.ErrOverloaded

// Server is the long-lived factorization/least-squares service the
// ROADMAP's north star names: it accepts requests of arbitrary shapes,
// plans each with the condition-aware planner, caches the decisions in
// a bounded LRU keyed by (m, n, procs, machine, memory budget, κ-bucket)
// — see plan.KappaBucket for the bucketing — batches concurrent
// same-key requests through one plan lookup, and executes them
// concurrently under a global simulated-rank budget. The planning cost
// is paid once per workload shape and amortized across traffic; the
// numerical routing (κ ≳ 10⁷ off the plain CholeskyQR2 family) is
// preserved because the κ-bucket is part of the cache key and cached
// plans are produced at the bucket's conservative edge.
//
// Create with NewServer, submit with Submit (safe for arbitrary
// concurrent use), observe with Stats, retire with Close. cmd/cacqrd
// wraps a Server in a JSON-over-HTTP daemon.
type Server struct {
	opts  ServerOptions
	inner *serve.Server
}

// ServerOptions configure a Server. The zero value is usable: 16-rank
// planning budget per request, a 128-entry plan cache, a 256-rank
// global execution budget and a 1024-request pending bound. No option
// selects an execution path: Submit and SubmitStream always run their
// request's plan on its own, and SubmitBatch is the one fused entry.
type ServerOptions struct {
	// Procs is the default per-request planning budget (maximum
	// simulated ranks a plan may use) when SubmitRequest.Procs is 0.
	// Defaults to 16.
	Procs int
	// CacheEntries bounds the plan LRU (0 = 128).
	CacheEntries int
	// RankBudget bounds the total simulated ranks executing at once
	// across all in-flight requests (0 = 256). A single plan needing
	// more than the whole budget runs alone.
	RankBudget int
	// MaxPending bounds admitted-but-unfinished requests (a SubmitBatch
	// of n counts n). Past the bound, submissions fail fast with
	// ErrOverloaded instead of queueing without bound (0 = 1024).
	MaxPending int
	// Options carry the planning and execution knobs shared by every
	// request: MemBudget, PlanMachine, InverseDepth, BaseSize, Workers,
	// Timeout. Options.CondEst must stay unset — conditioning is
	// per-request (SubmitRequest.CondEst).
	Options Options
}

// SubmitRequest is one unit of work for Server.Submit.
type SubmitRequest struct {
	// A is the matrix to factor (required, m ≥ n).
	A *Dense
	// B, when non-nil, turns the request into a least-squares solve
	// min ‖A·x − b‖₂ (length must equal A.Rows); nil requests the
	// factorization only.
	B []float64
	// Procs overrides the server's default planning budget (0 = default).
	Procs int
	// CondEst is the caller's κ₂(A) hint. 0 = measure the same cheap
	// power-iteration estimate AutoFactorize uses. The estimate is
	// bucketed per decade for the plan-cache key, so nearby values share
	// cached plans.
	CondEst float64
}

// SubmitResult is the outcome of one request.
type SubmitResult struct {
	// Q, R are the factors of A.
	Q, R *Dense
	// X is the least-squares solution (solve requests only).
	X []float64
	// Plan is the executed plan — cached or freshly produced.
	Plan *Plan
	// CondEst is the condition estimate the routing used (the caller's
	// hint, or the measured value).
	CondEst float64
	// PlanCacheHit reports whether the plan came from the cache or an
	// in-flight same-key lookup instead of a fresh planner run.
	PlanCacheHit bool
	// Fused reports that the request executed inside a SubmitBatch group
	// as the sequential CholeskyQR2 (or ShiftedCQR3) on one pool worker,
	// rather than a per-request simulated run. Submit and SubmitStream
	// never fuse. Fused results match per-request results to working
	// accuracy; Stats then carries the analytic critical-path flop count
	// instead of a simulated measurement.
	Fused bool
	// Stats is the run's per-processor cost: measured from the simulated
	// run for per-request execution, analytic for fused batches.
	Stats CostStats
	// TraceID identifies this request's span tree when the server's
	// Options.Tracer sampled it — retrievable via Tracer.Get (or
	// cacqrd's /v1/trace/{id}) while the trace stays in the retention
	// ring. Empty when tracing is off or the request was not sampled.
	TraceID string
	// Stream reports the panel schedule and resource accounting when the
	// request executed out-of-core (SubmitStream routed to a stream-cqr2
	// plan); nil for in-core executions.
	Stream *StreamInfo
}

// StreamRequest is one out-of-core unit of work for Server.SubmitStream:
// a matrix that arrives as a panel source instead of a resident Dense.
type StreamRequest struct {
	// Source feeds the matrix (required).
	Source *MatrixSource
	// Sink, when non-nil, receives the explicit Q panel by panel; nil
	// returns R only (single pass over the source).
	Sink *MatrixSink
	// CondEst is the caller's κ₂(A) hint (0 = assume well-conditioned —
	// the server cannot run the power-iteration estimator on a matrix it
	// never holds).
	CondEst float64
	// MemBudget caps the modeled resident footprint in bytes for this
	// request (0 = the server's shared Options.MemBudget). When the
	// effective budget rejects every in-core variant the planner routes
	// to the streamed CholeskyQR2; with no budget at all the source is
	// simply materialized and factored in core.
	MemBudget int64
}

// BatchItem is one request's outcome within SubmitBatch: exactly one of
// Result and Err is set.
type BatchItem struct {
	Result *SubmitResult
	Err    error
}

// ServerStats snapshots a Server's counters: requests admitted, plan
// cache hits/misses/evictions and population, planner invocations vs
// batch joins, and the execution gate's in-flight rank tokens. The
// cache-amortization rate is Stats().HitRate().
type ServerStats = serve.Stats

// NewServer builds a Server. Malformed shared Options (negative Workers,
// a set CondEst, a negative Procs) are rejected up front so every later
// Submit fails only for per-request reasons.
func NewServer(o ServerOptions) (*Server, error) {
	if err := checkOptions(o.Options); err != nil {
		return nil, err
	}
	if o.Options.CondEst > 0 {
		return nil, fmt.Errorf("cacqr: ServerOptions.Options.CondEst must be unset (conditioning is per-request)")
	}
	if o.Procs < 0 {
		return nil, fmt.Errorf("cacqr: invalid default processor budget %d", o.Procs)
	}
	if o.Procs == 0 {
		o.Procs = 16
	}
	return &Server{
		opts: o,
		inner: serve.New(serve.Config{
			CacheEntries: o.CacheEntries,
			RankBudget:   o.RankBudget,
			MaxPending:   o.MaxPending,
		}),
	}, nil
}

// Submit plans, factors, and (for solve requests) back-substitutes one
// request. Same-shaped, same-κ-bucket requests share one cached plan;
// execution is admitted under the server's global rank budget. Safe for
// arbitrary concurrent use; blocks until the request completes.
func (s *Server) Submit(req SubmitRequest) (*SubmitResult, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with request-scoped cancellation: a canceled ctx
// unblocks the serve layer's waits (a shared plan lookup, the rank gate)
// and aborts an in-flight distributed run — simulated ranks or TCP
// workers alike — returning the context's error. When the server's
// Options.Tracer samples the request, the whole path records a span
// tree (condest → plan → gate → execute → per-rank kernel stages and
// collectives) retrievable by the result's TraceID.
func (s *Server) SubmitCtx(ctx context.Context, req SubmitRequest) (*SubmitResult, error) {
	return s.traced(ctx, "factorize", req.CondEst, func(ctx context.Context) (*SubmitResult, error) {
		return s.submit(ctx, req)
	})
}

// traced runs one request body under a trace (when the Tracer samples
// it), stamps the outcome on the root span and the result, and counts
// the request.
func (s *Server) traced(ctx context.Context, name string, hint float64, body func(context.Context) (*SubmitResult, error)) (*SubmitResult, error) {
	tr, ctx := s.opts.Options.Tracer.Start(ctx, name)
	res, err := body(ctx)
	if res != nil {
		res.TraceID = tr.ID()
		root := tr.Root()
		root.SetStr("variant", string(res.Plan.Variant))
		root.SetBool("cache_hit", res.PlanCacheHit)
	}
	s.countRequest(hint, res, err)
	tr.Finish()
	return res, err
}

// submit is the body of SubmitCtx, running under an already-started (or
// absent) trace carried on ctx.
func (s *Server) submit(ctx context.Context, req SubmitRequest) (*SubmitResult, error) {
	root := obs.FromContext(ctx)
	cs := root.Stage("condest")
	preq, err := s.prepare(req)
	cs.SetFloat("kappa", preq.CondEst)
	cs.End()
	if err != nil {
		return nil, err
	}
	root.SetInt("m", int64(req.A.Rows))
	root.SetInt("n", int64(req.A.Cols))
	root.SetInt("kappa_bucket", int64(plan.KappaBucket(preq.CondEst)))
	return s.do(ctx, preq, stream.NewDenseSource(req.A.view()), SinkToDense(), req.B)
}

// do resolves preq's plan through the serve layer — cache, shared
// lookup, rank gate — and executes it on src as one traced "execute" stage.
func (s *Server) do(ctx context.Context, preq plan.Request, src stream.Source, sink *MatrixSink, b []float64) (*SubmitResult, error) {
	out := &SubmitResult{CondEst: preq.CondEst}
	pl, hit, err := s.inner.Do(ctx, preq, func(p plan.Plan) error {
		es := obs.FromContext(ctx).Stage("execute")
		defer es.End()
		return s.run(obs.ContextWith(ctx, es), p, src, sink, b, out)
	})
	if err != nil {
		return nil, err
	}
	out.Plan, out.PlanCacheHit = &pl, hit
	return out, nil
}

// run executes plan p on src under the server's shared Options and the
// request's context and condition estimate, and records the outcome —
// factors, cost, stream accounting and, for a solve, x — in out. Every
// request that is not a fused batch ends here.
func (s *Server) run(ctx context.Context, p plan.Plan, src stream.Source, sink *MatrixSink, b []float64, out *SubmitResult) error {
	opts := s.opts.Options
	opts.CondEst = out.CondEst
	m, n := src.Dims()
	j, err := newJob(m, n, p, opts)
	if err != nil {
		return err
	}
	res, err := execute(ctx, j, src, sink)
	if err != nil {
		return err
	}
	return out.fill(res, b)
}

// fill records a run's factors, cost and stream accounting and, for a
// solve (b non-nil), back-substitutes x.
func (out *SubmitResult) fill(res *Result, b []float64) (err error) {
	out.Q, out.R, out.Stats, out.Stream = res.Q, res.R, res.Stats, res.Stream
	if b != nil {
		out.X, err = solveWithQR(res.Q, res.R, b)
	}
	return err
}

// SubmitStream plans and executes one out-of-core request: the planner
// sees the request's memory budget, and when that budget rejects every
// in-core variant it selects the streamed CholeskyQR2 — which factors
// the source panel by panel without ever materializing it; a budget
// that admits an in-core plan has the source read into memory once and
// factored like any Submit. The plan cache, shared lookups, rank gate,
// and tracing all apply exactly as for Submit (stream plans occupy one
// rank token). Blocks until complete; safe for arbitrary concurrent
// use.
func (s *Server) SubmitStream(req StreamRequest) (*SubmitResult, error) {
	return s.SubmitStreamCtx(context.Background(), req)
}

// SubmitStreamCtx is SubmitStream with request-scoped cancellation: a
// canceled ctx unblocks the serve layer's waits and stops the scan of
// the source at its next panel, streamed or drained into memory,
// returning the context's error.
func (s *Server) SubmitStreamCtx(ctx context.Context, req StreamRequest) (*SubmitResult, error) {
	return s.traced(ctx, "factorize-stream", req.CondEst, func(ctx context.Context) (*SubmitResult, error) {
		return s.submitStream(ctx, req)
	})
}

// submitStream is the body of SubmitStreamCtx.
func (s *Server) submitStream(ctx context.Context, req StreamRequest) (*SubmitResult, error) {
	if req.Source == nil {
		return nil, fmt.Errorf("cacqr: SubmitStream needs a source")
	}
	m, n := req.Source.Dims()
	opts := s.opts.Options
	opts.CondEst = req.CondEst
	if req.MemBudget != 0 {
		opts.MemBudget = req.MemBudget
	}
	// Streaming is single-rank; Procs = 1 keeps the plan cache key and
	// the rank-gate claim honest.
	preq, err := planRequest(m, n, 1, opts)
	if err != nil {
		return nil, err
	}
	root := obs.FromContext(ctx)
	root.SetInt("m", int64(m))
	root.SetInt("n", int64(n))
	root.SetInt("mem_budget", opts.MemBudget)
	return s.do(ctx, preq, req.Source.src, req.Sink, nil)
}

// countRequest folds one finished request into the Tracer registry's
// cacqr_requests_total series — every request, sampled into a trace or
// not, so the counters stay exact however aggressive the sampling. A
// server without a tracer (or a tracer without metrics) pays a nil
// check. hint is the caller's κ, which buckets a request that failed
// before the routing estimate existed.
func (s *Server) countRequest(hint float64, res *SubmitResult, err error) {
	m := s.opts.Options.Tracer.Metrics()
	if m == nil {
		return
	}
	variant, hit, bucket := "unknown", false, "unknown"
	if res != nil {
		variant = string(res.Plan.Variant)
		hit = res.PlanCacheHit
		bucket = strconv.Itoa(plan.KappaBucket(res.CondEst))
	} else if hint > 0 {
		bucket = strconv.Itoa(plan.KappaBucket(hint))
	}
	outcome := "ok"
	switch {
	case errors.Is(err, ErrOverloaded):
		outcome = "overloaded"
	case err != nil:
		outcome = "error"
	}
	m.Counter("cacqr_requests_total", "Requests by plan variant, κ-bucket, cache outcome, and result.",
		obs.L("variant", variant),
		obs.L("kappa_bucket", bucket),
		obs.L("cache_hit", strconv.FormatBool(hit)),
		obs.L("outcome", outcome)).Add(1)
}

// prepare validates one request and resolves its planner request: the
// effective processor budget and, as its CondEst, the condition
// estimate (the caller's hint, or the measured power-iteration value).
func (s *Server) prepare(req SubmitRequest) (plan.Request, error) {
	if err := req.A.validate(); err != nil {
		return plan.Request{}, err
	}
	if req.B != nil && len(req.B) != req.A.Rows {
		return plan.Request{}, fmt.Errorf("cacqr: rhs length %d for %d rows", len(req.B), req.A.Rows)
	}
	procs := req.Procs
	if procs == 0 {
		procs = s.opts.Procs
	}
	opts := s.opts.Options
	opts.CondEst = req.CondEst
	preq, err := planRequest(req.A.Rows, req.A.Cols, procs, opts)
	if err == nil {
		preq.CondEst = condOrEstimate(req.A, req.CondEst)
	}
	return preq, err
}

// submitJob is one SubmitBatch request riding its group's fused
// execution.
type submitJob struct {
	req SubmitRequest
	out *SubmitResult
	err error
}

// SubmitBatch submits many requests as one call, fusing same-plan-key
// groups into single batched executions: per group, one plan
// resolution, one rank-gate admission and one pool dispatch in which
// each item runs its whole factorization on one worker — instead of a
// simulated distributed run per request. Outcomes are per item and
// index-aligned with reqs: a malformed or ill-conditioned member gets
// its own Err without failing its batch-mates, and a saturated server
// refuses whole groups with ErrOverloaded. Distinct-key groups execute
// concurrently. Safe for arbitrary concurrent use alongside Submit.
func (s *Server) SubmitBatch(reqs []SubmitRequest) []BatchItem {
	return s.SubmitBatchCtx(context.Background(), reqs)
}

// SubmitBatchCtx is SubmitBatch with request-scoped cancellation shared
// by every group in the batch.
func (s *Server) SubmitBatchCtx(ctx context.Context, reqs []SubmitRequest) []BatchItem {
	items := make([]BatchItem, len(reqs))
	type group struct {
		preq plan.Request
		jobs []*submitJob
		idxs []int
	}
	groups := make(map[plan.CacheKey]*group)
	var order []*group // deterministic dispatch order
	for i := range reqs {
		preq, err := s.prepare(reqs[i])
		if err != nil {
			items[i].Err = err
			s.countRequest(reqs[i].CondEst, nil, err)
			continue
		}
		key := plan.KeyFor(preq)
		g := groups[key]
		if g == nil {
			g = &group{preq: preq}
			groups[key] = g
			order = append(order, g)
		}
		g.jobs = append(g.jobs, &submitJob{req: reqs[i], out: &SubmitResult{CondEst: preq.CondEst}})
		g.idxs = append(g.idxs, i)
	}
	var wg sync.WaitGroup
	for _, g := range order {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			pl, hit, err := s.inner.DoBatch(ctx, g.preq, len(g.jobs), func(p plan.Plan) error {
				s.execGroup(ctx, p, g.jobs)
				return nil
			})
			for j, job := range g.jobs {
				i := g.idxs[j]
				switch {
				case err != nil:
					items[i].Err = err
				case job.err != nil:
					items[i].Err = job.err
				default:
					job.out.Plan, job.out.PlanCacheHit = &pl, hit
					items[i].Result = job.out
				}
				s.countRequest(job.req.CondEst, items[i].Result, items[i].Err)
			}
		}(g)
	}
	wg.Wait()
	return items
}

// execGroup runs one same-key group of jobs under an already-acquired
// rank-gate slot. The CholeskyQR2 family routes through the batched
// drivers (parallelism comes from the batch dimension; each item is the
// sequential ladder on one pool worker, so results match per-request
// runs to working accuracy); TSQR and PGEQRF have no batched driver and
// fall back to per-item simulated runs. Per-item failures land in
// job.err.
func (s *Server) execGroup(ctx context.Context, p plan.Plan, jobs []*submitJob) {
	switch p.Variant {
	case plan.CACQR2, plan.PanelCACQR2, plan.ShiftedCQR3:
		as := make([]*lin.Matrix, len(jobs))
		for i, job := range jobs {
			// Read-only views, not copies: the batched drivers never
			// mutate their inputs, and a 256-item batch must not
			// pay a full extra pass over the data just to cross the
			// Dense/lin boundary.
			as[i] = job.req.A.view()
		}
		// Fused runs bypass the simulated runtime, so Stats carries the
		// cost model's count for the same passes on one rank — what an
		// unfused 1×1×1 run of the same matrix measures.
		batched, onOneRank := core.BatchedCQR2, plan.Plan{Variant: plan.CACQR2, C: 1, D: 1}
		if p.Variant == plan.ShiftedCQR3 {
			batched, onOneRank.Variant = core.BatchedShiftedCQR3, plan.ShiftedCQR3
		}
		qs, rs, errs := batched(as, s.opts.Options.Workers)
		model, _ := plan.Price(jobs[0].req.A.Rows, jobs[0].req.A.Cols, onOneRank, costmodel.Machine{}) // 1×1×1 divides any shape
		for i, job := range jobs {
			if errs[i] != nil {
				job.err = errs[i]
				continue
			}
			job.out.Fused = true
			job.err = job.out.fill(&Result{Q: fromLin(qs[i]), R: fromLin(rs[i]), Stats: CostStats{Flops: model.Cost.Flops}}, job.req.B)
		}
	default:
		// No fused kernel for this variant: per-item distributed runs,
		// sequentially under the group's single gate admission.
		for _, job := range jobs {
			job.err = s.run(ctx, p, stream.NewDenseSource(job.req.A.view()), SinkToDense(), job.req.B, job.out)
		}
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats { return s.inner.Stats() }

// Close makes every later submission fail and waits for the admitted
// requests — single requests and SubmitBatch groups alike —
// to finish; nothing admitted is held back on a timer. Idempotent.
func (s *Server) Close() { s.inner.Close() }
