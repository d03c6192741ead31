package serve

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacqr/internal/plan"
)

func req(m, n, procs int, cond float64) plan.Request {
	return plan.Request{M: m, N: n, Procs: procs, CondEst: cond}
}

func TestCacheHitMissEviction(t *testing.T) {
	var planCalls int64
	s := New(Config{
		CacheEntries: 2,
		Plan: func(r plan.Request) (plan.Plan, error) {
			atomic.AddInt64(&planCalls, 1)
			return plan.Best(r)
		},
	})
	defer s.Close()

	shapes := []plan.Request{req(256, 8, 4, 0), req(512, 8, 4, 0), req(1024, 8, 4, 0)}

	// First pass: three distinct keys through a 2-entry cache — all miss.
	for _, r := range shapes {
		if _, hit, err := s.Do(context.Background(), r, nil); err != nil || hit {
			t.Fatalf("first submission of %dx%d: hit=%v err=%v", r.M, r.N, hit, err)
		}
	}
	st := s.Stats()
	if st.Misses != 3 || st.Hits != 0 || st.Planned != 3 {
		t.Fatalf("after cold pass: %+v", st)
	}
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("LRU bound not enforced: %+v", st)
	}

	// shapes[0] was evicted (least recently used): a re-submit misses and
	// plans again; shapes[2] is resident and hits.
	if _, hit, err := s.Do(context.Background(), shapes[0], nil); err != nil || hit {
		t.Fatalf("evicted key should miss: hit=%v err=%v", hit, err)
	}
	if _, hit, err := s.Do(context.Background(), shapes[2], nil); err != nil || !hit {
		t.Fatalf("resident key should hit: hit=%v err=%v", hit, err)
	}
	st = s.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Planned != 4 || st.Evictions != 2 {
		t.Fatalf("after warm pass: %+v", st)
	}
	if got := atomic.LoadInt64(&planCalls); got != st.Planned {
		t.Fatalf("planner invoked %d times, stats say %d", got, st.Planned)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("hit rate %v, want > 0", st.HitRate())
	}
}

// TestServedPlanCheaperThanFresh pins the serving layer's reason to
// exist: answering a repeated workload shape from the plan cache must
// beat re-running the planner's enumeration. The two paths differ by
// orders of magnitude (an LRU lookup vs pricing every variant and
// grid), so a 2× margin is conservative enough to survive CI noise.
func TestServedPlanCheaperThanFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall-clock")
	}
	s := New(Config{CacheEntries: 1})
	defer s.Close()
	// Two shapes alternating through a one-entry cache evict each other,
	// so every Do misses and plans; one shape repeated hits every time.
	shapes := [2]plan.Request{req(1<<18, 256, 512, 0), req(1<<18, 128, 512, 0)}
	perOp := func(n int, wantHit bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				r := shapes[0]
				if !wantHit {
					r = shapes[i%2]
				}
				if _, hit, err := s.Do(context.Background(), r, nil); err != nil || hit != wantHit {
					t.Fatalf("Do(%dx%d): hit=%v (want %v) err=%v", r.M, r.N, hit, wantHit, err)
				}
			}
			if d := time.Since(start) / time.Duration(n); d < best {
				best = d
			}
		}
		return best
	}
	miss := perOp(4, false)
	if _, _, err := s.Do(context.Background(), shapes[0], nil); err != nil { // leave shapes[0] resident
		t.Fatal(err)
	}
	hit := perOp(1000, true)
	if hit*2 > miss {
		t.Fatalf("cached plan lookup %v/op is not 2x cheaper than fresh planning %v/op", hit, miss)
	}
}

func TestGetPromotesRecency(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	defer s.Close()
	a, b, c := req(256, 8, 2, 0), req(512, 8, 2, 0), req(1024, 8, 2, 0)
	for _, r := range []plan.Request{a, b} {
		if _, _, err := s.Do(context.Background(), r, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes LRU, then insert c: b must be the eviction.
	if _, hit, _ := s.Do(context.Background(), a, nil); !hit {
		t.Fatal("a should be resident")
	}
	if _, _, err := s.Do(context.Background(), c, nil); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := s.Do(context.Background(), a, nil); !hit {
		t.Fatal("a was evicted despite being most recently used")
	}
	if _, hit, _ := s.Do(context.Background(), b, nil); hit {
		t.Fatal("b survived eviction despite being least recently used")
	}
}

func TestKappaBucketsShareAndSplitCacheLines(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	// Same decade → one plan line; different decade → another.
	if _, hit, err := s.Do(context.Background(), req(4096, 64, 8, 2e9), nil); err != nil || hit {
		t.Fatalf("cold κ=2e9: hit=%v err=%v", hit, err)
	}
	if _, hit, err := s.Do(context.Background(), req(4096, 64, 8, 9e9), nil); err != nil || !hit {
		t.Fatalf("κ=9e9 should share κ=2e9's bucket: hit=%v err=%v", hit, err)
	}
	if _, hit, err := s.Do(context.Background(), req(4096, 64, 8, 2e10), nil); err != nil || hit {
		t.Fatalf("κ=2e10 is a different bucket: hit=%v err=%v", hit, err)
	}
	// The cached ill-conditioned plan must not be the plain CQR2 family.
	p, _, err := s.Do(context.Background(), req(4096, 64, 8, 5e9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Variant == plan.CACQR2 || p.Variant == plan.PanelCACQR2 {
		t.Fatalf("κ=5e9 served a plain-CQR2 plan: %v", p)
	}
}

func TestBatchingSharesOnePlanLookup(t *testing.T) {
	var planCalls int64
	release := make(chan struct{})
	s := New(Config{
		Plan: func(r plan.Request) (plan.Plan, error) {
			atomic.AddInt64(&planCalls, 1)
			<-release // hold the lookup open so followers must join it
			return plan.Best(r)
		},
	})
	defer s.Close()

	const followers = 8
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Do(context.Background(), req(2048, 16, 4, 0), nil)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let everyone enqueue
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&planCalls); got != 1 {
		t.Fatalf("burst of %d same-key requests made %d plan calls, want 1", followers, got)
	}
	st := s.Stats()
	if st.Planned != 1 || st.Batched != followers-1 {
		t.Fatalf("batch accounting: %+v", st)
	}
}

func TestPlanErrorPropagatesToWholeBatch(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	s := New(Config{
		Plan: func(plan.Request) (plan.Plan, error) { calls++; return plan.Plan{}, boom },
	})
	defer s.Close()
	if _, _, err := s.Do(context.Background(), req(128, 8, 2, 0), nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Failed lookups must not be cached: the next request plans again.
	if _, _, err := s.Do(context.Background(), req(128, 8, 2, 0), nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("planner called %d times, want 2 (errors are not cached)", calls)
	}
}

func TestRankBudgetBoundsConcurrentExecution(t *testing.T) {
	const budget = 8
	s := New(Config{RankBudget: budget})
	defer s.Close()

	var inFlight, peak int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 256×8 over ≤4 ranks: every plan holds ≥1 token, most hold 4.
			_, _, err := s.Do(context.Background(), req(256, 8, 4, 0), func(p plan.Plan) error {
				cur := atomic.AddInt64(&inFlight, int64(p.Procs))
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				atomic.AddInt64(&inFlight, -int64(p.Procs))
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := atomic.LoadInt64(&peak); p > budget {
		t.Fatalf("peak in-flight simulated ranks %d exceeded budget %d", p, budget)
	}
	if st := s.Stats(); st.InFlightRanks != 0 {
		t.Fatalf("tokens leaked: %+v", st)
	}
}

func TestOversizedPlanStillRuns(t *testing.T) {
	s := New(Config{RankBudget: 2})
	defer s.Close()
	ran := false
	// 1024×8 over ≤16 ranks can choose a plan wider than the budget of 2;
	// the gate clamps instead of deadlocking.
	_, _, err := s.Do(context.Background(), req(1024, 8, 16, 0), func(p plan.Plan) error { ran = true; return nil })
	if err != nil || !ran {
		t.Fatalf("oversized plan: ran=%v err=%v", ran, err)
	}
}

func TestConcurrentMixedShapeSubmission(t *testing.T) {
	s := New(Config{CacheEntries: 4})
	defer s.Close()
	shapes := []plan.Request{
		req(256, 8, 4, 0),
		req(512, 16, 4, 0),
		req(1024, 8, 8, 1e10),
		req(2048, 16, 8, 0),
	}
	const perShape = 6
	var wg sync.WaitGroup
	var execs int64
	for round := 0; round < perShape; round++ {
		for _, r := range shapes {
			wg.Add(1)
			go func(r plan.Request) {
				defer wg.Done()
				_, _, err := s.Do(context.Background(), r, func(plan.Plan) error {
					atomic.AddInt64(&execs, 1)
					return nil
				})
				if err != nil {
					t.Errorf("%dx%d: %v", r.M, r.N, err)
				}
			}(r)
		}
	}
	wg.Wait()
	st := s.Stats()
	want := int64(len(shapes) * perShape)
	if st.Requests != want || atomic.LoadInt64(&execs) != want {
		t.Fatalf("requests %d execs %d, want %d", st.Requests, execs, want)
	}
	// 4 distinct keys in a 4-entry cache: exactly 4 planner calls, the
	// rest hits or batch joins.
	if st.Planned != int64(len(shapes)) {
		t.Fatalf("planned %d, want %d: %+v", st.Planned, len(shapes), st)
	}
	if st.Hits+st.Batched != want-int64(len(shapes)) {
		t.Fatalf("amortization accounting off: %+v", st)
	}
}

func TestExecErrorsDoNotPoisonCache(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	boom := errors.New("exec failed")
	if _, _, err := s.Do(context.Background(), req(256, 8, 2, 0), func(plan.Plan) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want exec error", err)
	}
	// The plan itself was fine — the retry hits the cache.
	if _, hit, err := s.Do(context.Background(), req(256, 8, 2, 0), nil); err != nil || !hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
}

func TestCloseRefusesAndDrains(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	block := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Do(context.Background(), req(256, 8, 2, 0), func(plan.Plan) error {
			close(started)
			<-block
			return nil
		})
		done <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was executing")
	case <-time.After(10 * time.Millisecond):
	}
	close(block)
	<-closed
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	if _, _, err := s.Do(context.Background(), req(256, 8, 2, 0), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestStatsString(t *testing.T) {
	// HitRate on the zero value must not divide by zero.
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("zero-stats hit rate %v", r)
	}
	_ = fmt.Sprintf("%+v", Stats{Requests: 1})
}
