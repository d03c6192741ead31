// Package serve is the long-lived factorization service behind
// cacqr.Server and cmd/cacqrd: the piece the ROADMAP's north star names.
// The paper's observation is that the right (c, d, variant) choice
// depends on the matrix shape, the machine, and the conditioning — but
// not on the matrix *values* — so a serving process handling heavy
// traffic should make that choice once per workload shape and amortize
// it. This package implements exactly that amortization:
//
//   - a bounded LRU of planner decisions keyed by plan.CacheKey
//     (shape, processor budget, machine, memory budget, legend knobs,
//     and the κ-bucket of the condition estimate — see plan.KappaBucket),
//     with cumulative hit/miss/eviction counters;
//   - request batching: concurrent same-key requests share ONE plan
//     lookup (the first arrival leads, those that arrive while it plans
//     join) and then execute concurrently;
//   - fused execution of a caller-assembled batch (DoBatch): n same-key
//     requests through one lookup, one rank-gate acquisition and one
//     exec — the only way two requests share an execution;
//   - a global simulated-rank budget: each executing request holds as
//     many tokens as its plan has ranks, so a burst of 3D-grid requests
//     cannot oversubscribe the host with P goroutines each — the budget
//     bounds total in-flight simulated ranks, not requests.
//
// The package is deliberately matrix-free: it plans, caches, batches,
// and gates, while the caller (cacqr.Server) supplies the executor that
// runs a plan against actual data. That keeps the dependency direction
// internal/serve → internal/plan with no cycle through the root package.
//
// All request-level counters — lookups, hits, misses, leads, batch
// joins, evictions — live under ONE mutex with the cache itself, and
// Stats reads them in one acquisition, so the invariants
// Lookups == Hits + Misses and Misses == Batched + Leads hold in every
// snapshot, concurrent traffic or not.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cacqr/internal/hist"
	"cacqr/internal/obs"
	"cacqr/internal/plan"
)

// DefaultCacheEntries bounds the plan LRU when Config.CacheEntries = 0.
const DefaultCacheEntries = 128

// DefaultRankBudget bounds total in-flight simulated ranks when
// Config.RankBudget = 0.
const DefaultRankBudget = 256

// DefaultMaxPending bounds admitted-but-unfinished request units when
// Config.MaxPending = 0. Past it, requests fail fast with ErrOverloaded.
const DefaultMaxPending = 1024

// maxLatencyKeys bounds the per-key histogram map: a hostile traffic mix
// of unbounded distinct shapes must not grow server memory without
// bound. Eviction is crude (an arbitrary key); per-key latency tracking
// is best-effort observability, not an accounting ledger.
const maxLatencyKeys = 4096

// ErrClosed is returned by Do and DoBatch after Close.
var ErrClosed = errors.New("serve: server is closed")

// Config tunes a Server. The zero value selects the defaults above.
type Config struct {
	// CacheEntries bounds the plan LRU (0 = DefaultCacheEntries).
	CacheEntries int
	// RankBudget bounds the total simulated ranks in flight across all
	// executing requests (0 = DefaultRankBudget). A plan needing more
	// ranks than the whole budget runs alone, holding the full budget.
	RankBudget int
	// MaxPending bounds admitted-but-unfinished request units (0 =
	// DefaultMaxPending). The bound is enforced by refusal, never by
	// queueing: a request that would exceed it gets ErrOverloaded
	// immediately, while everything already admitted runs to completion.
	MaxPending int
	// Plan produces the decision for one (already κ-bucketed) request
	// (nil = plan.Best).
	Plan func(plan.Request) (plan.Plan, error)
}

// Stats is a snapshot of a Server's counters. All request-level
// counters are read under one lock acquisition, so the invariants
// Lookups == Hits + Misses and Misses == Batched + Leads hold in every
// snapshot.
type Stats struct {
	// Requests is the number of request units admitted (a DoBatch of n
	// counts n).
	Requests int64
	// Lookups counts plan-resolution attempts in request units; every
	// unit is either a Hit (the plan came from the cache) or a Miss.
	// Misses split into Batched units (joined an in-flight same-key
	// lookup) and Leads units (led a fresh planner run). Evictions
	// counts LRU evictions; Entries is the current cache population.
	Lookups, Hits, Misses int64
	Evictions             int64
	Entries               int
	// Planned counts actual planner invocations (one per lead,
	// regardless of how many units the lead carried); Batched counts
	// units that shared an in-flight lookup instead of planning; Leads
	// counts the units carried by leads.
	Planned, Batched, Leads int64
	// InFlightRanks is the number of simulated-rank tokens currently
	// held by executing requests; RankBudget is the bound.
	InFlightRanks, RankBudget int
	// Overloaded counts requests refused at admission (ErrOverloaded);
	// Pending is the request units currently admitted and unfinished;
	// MaxPending is the bound they were checked against.
	Overloaded          int64
	Pending, MaxPending int
	// FusedBatches counts fused executions, one per DoBatch call that
	// got past plan resolution and the rank gate; FusedRequests counts
	// the request units they carried.
	FusedBatches, FusedRequests int64
	// Latencies maps plan.CacheKey strings to per-key latency quantiles
	// over the most recent hist.DefaultWindow observations.
	Latencies map[string]hist.Summary
}

// HitRate is the fraction of admitted requests that avoided a planner
// invocation (cache hits plus batch joins). 0 when no requests yet.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits+s.Batched) / float64(s.Requests)
}

// Server is the concurrency-safe plan-caching service. Create with New,
// submit with Do, retire with Close.
type Server struct {
	cfg  Config
	gate *rankGate
	adm  *admission

	// mu guards the cache, the request-level counters, the latency
	// histogram map, and the inflight map — one lock, so Stats snapshots
	// are internally consistent.
	mu       sync.Mutex
	cache    *planCache               // guarded by mu
	closed   bool                     // guarded by mu
	inflight map[plan.CacheKey]*batch // guarded by mu
	wg       sync.WaitGroup

	requests                    int64                   // guarded by mu
	lookups, hits, misses       int64                   // guarded by mu
	evictions                   int64                   // guarded by mu
	planned, batched, leads     int64                   // guarded by mu
	fusedBatches, fusedRequests int64                   // guarded by mu
	hists                       map[string]*hist.Window // guarded by mu
}

// batch is one in-flight plan lookup that same-key requests share.
type batch struct {
	done chan struct{} // closed when plan/err are set
	plan plan.Plan
	err  error
}

// New builds a Server from the config (zero value = all defaults).
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.RankBudget <= 0 {
		cfg.RankBudget = DefaultRankBudget
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.Plan == nil {
		cfg.Plan = plan.Best
	}
	return &Server{
		cfg:      cfg,
		cache:    newPlanCache(cfg.CacheEntries),
		gate:     newRankGate(cfg.RankBudget),
		adm:      newAdmission(cfg.MaxPending),
		inflight: make(map[plan.CacheKey]*batch),
		hists:    make(map[string]*hist.Window),
	}
}

// Do resolves a plan for the request — from cache, from an in-flight
// same-key lookup, or by planning fresh at the request's κ-bucket edge —
// and then runs exec(plan) under the global rank budget. It reports the
// plan, whether it came from the cache or a shared lookup (hit), and
// exec's error. Requests past the pending bound are refused with
// ErrOverloaded. ctx cancellation unblocks every wait on the way in —
// a join of an in-flight lookup and the rank gate — and is the
// executor's to honor once exec starts (nil ctx = context.Background()).
// A span carried on ctx (obs.FromContext) gets "plan" and "gate" stage
// children; without one, the instrumentation is free. Safe for arbitrary
// concurrent use.
func (s *Server) Do(ctx context.Context, req plan.Request, exec func(plan.Plan) error) (plan.Plan, bool, error) {
	return s.do(ctx, req, 1, false, exec)
}

// DoBatch is Do for a caller-assembled batch of n same-key requests
// executed as ONE fused run: n admission units, one plan resolution, one
// rank-gate acquisition, one exec call, n latency observations. exec
// runs the whole batch; per-item failures are the caller's to track.
func (s *Server) DoBatch(ctx context.Context, req plan.Request, n int, exec func(plan.Plan) error) (plan.Plan, bool, error) {
	if n <= 0 {
		return plan.Plan{}, false, fmt.Errorf("serve: DoBatch of %d requests", n)
	}
	return s.do(ctx, req, n, true, exec)
}

// do is Do and DoBatch, the one door every request comes through: n
// units are admitted against the pending bound (refused with
// ErrOverloaded, never queued) and registered with the close accounting
// (ErrClosed once Close was called); then the plan is resolved for them
// (the "plan" stage) and its ranks are held (the "gate" stage) while
// exec runs. A run the caller assembled as a batch counts as one fused
// execution. A failed lookup, or a wait the context abandoned, returns
// before the run is counted or its latency observed.
func (s *Server) do(ctx context.Context, req plan.Request, n int, fused bool, exec func(plan.Plan) error) (plan.Plan, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.adm.admit(n) {
		return plan.Plan{}, false, ErrOverloaded
	}
	defer s.adm.done(n)
	if err := s.enter(int64(n)); err != nil {
		return plan.Plan{}, false, err
	}
	defer s.wg.Done()

	start, key := time.Now(), plan.KeyFor(req)
	sp := obs.FromContext(ctx)
	ps := sp.Stage("plan")
	p, hit, err := s.resolve(ctx, key, req, int64(n))
	ps.SetBool("cache_hit", hit)
	ps.End()
	if err != nil {
		return plan.Plan{}, false, err
	}
	if exec != nil {
		gs := sp.Stage("gate")
		held, gerr := s.gate.acquire(ctx, p.Procs)
		gs.End()
		if gerr != nil {
			return plan.Plan{}, false, gerr
		}
		err = exec(p)
		s.gate.release(held)
	}
	if fused {
		s.mu.Lock()
		s.fusedBatches++
		s.fusedRequests += int64(n)
		s.mu.Unlock()
	}
	s.observe(key, time.Since(start), n)
	return p, hit, err
}

// enter registers units admitted request units with the close
// accounting: Close waits for every entered request, and nothing enters
// after it. The caller must pair a successful enter with wg.Done.
func (s *Server) enter(units int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.requests += units
	s.wg.Add(1)
	return nil
}

// resolve produces the plan for key — from cache, by riding an in-flight
// same-key lookup (counted as units batched requests), or by leading a
// fresh lookup at the κ-bucket's conservative edge. A same-key request
// that arrives while the leader plans rides its lookup, one that arrives
// later finds the cache entry, so neither ever plans. A canceled ctx
// abandons a join wait (the in-flight lookup itself keeps going for its
// other riders). The boolean reports whether the plan came from cache or
// a shared lookup.
//
// The cache consult and its outcome counters update in ONE critical
// section, so Lookups == Hits + Misses and Misses == Batched + Leads
// hold at every instant a Stats snapshot could be taken.
func (s *Server) resolve(ctx context.Context, key plan.CacheKey, req plan.Request, units int64) (plan.Plan, bool, error) {
	s.mu.Lock()
	s.lookups += units
	if p, ok := s.cache.Get(key); ok {
		s.hits += units
		s.mu.Unlock()
		return p, true, nil
	}
	s.misses += units
	if b, joined := s.inflight[key]; joined {
		// Ride the in-flight lookup.
		s.batched += units
		s.mu.Unlock()
		select {
		case <-b.done:
		case <-ctx.Done():
			return plan.Plan{}, false, ctx.Err()
		}
		if b.err != nil {
			return plan.Plan{}, false, b.err
		}
		return b.plan, true, nil
	}
	// Lead a new lookup: plan once at the bucket's conservative edge.
	b := &batch{done: make(chan struct{})}
	s.inflight[key] = b
	s.leads += units
	s.planned++
	s.mu.Unlock()
	b.plan, b.err = s.cfg.Plan(plan.Bucketed(req))
	s.mu.Lock()
	if b.err == nil {
		s.evictions += int64(s.cache.Put(key, b.plan))
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(b.done)
	return b.plan, false, b.err
}

// observe records n request latencies of duration d under the key's
// histogram, creating it on first use (bounded by maxLatencyKeys). The
// map is consulted under s.mu; the ring itself has its own lock, so
// recording does not serialize requests against each other.
func (s *Server) observe(key plan.CacheKey, d time.Duration, n int) {
	ks := key.String()
	s.mu.Lock()
	w, ok := s.hists[ks]
	if !ok {
		if len(s.hists) >= maxLatencyKeys {
			for k := range s.hists {
				delete(s.hists, k)
				break
			}
		}
		w = hist.New(hist.DefaultWindow)
		s.hists[ks] = w
	}
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		w.Observe(d)
	}
}

// Stats snapshots the counters. Everything request-level — lookup
// ledger, cache population, fused counts, latency summaries — is read
// under one s.mu acquisition, so the documented invariants hold in the
// returned snapshot.
func (s *Server) Stats() Stats {
	inFlight, budget := s.gate.usage()
	pending, maxPending, overloaded := s.adm.usage()
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := make(map[string]hist.Summary, len(s.hists))
	for k, w := range s.hists {
		lat[k] = w.Summary()
	}
	return Stats{
		Requests:      s.requests,
		Lookups:       s.lookups,
		Hits:          s.hits,
		Misses:        s.misses,
		Evictions:     s.evictions,
		Entries:       s.cache.Len(),
		Planned:       s.planned,
		Batched:       s.batched,
		Leads:         s.leads,
		InFlightRanks: inFlight,
		RankBudget:    budget,
		Overloaded:    overloaded,
		Pending:       pending,
		MaxPending:    maxPending,
		FusedBatches:  s.fusedBatches,
		FusedRequests: s.fusedRequests,
		Latencies:     lat,
	}
}

// Close refuses new requests and waits for in-flight requests to
// finish. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}
