package cacqr

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, o ServerOptions) *Server {
	t.Helper()
	s, err := NewServer(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestServerFactorizeAndCacheHit(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 8})
	a := RandomMatrix(256, 8, 21)
	first, err := s.Submit(SubmitRequest{A: a})
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCacheHit {
		t.Fatal("cold request reported a cache hit")
	}
	if first.Plan == nil || first.Q == nil || first.R == nil {
		t.Fatalf("incomplete result: %+v", first)
	}
	if o := OrthogonalityError(first.Q); o > 1e-10 {
		t.Fatalf("orthogonality %g", o)
	}
	if r := ResidualNorm(a, first.Q, first.R); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	// A same-shaped (different values) matrix reuses the cached plan.
	second, err := s.Submit(SubmitRequest{A: RandomMatrix(256, 8, 22)})
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCacheHit {
		t.Fatal("same-key request missed the plan cache")
	}
	if second.Plan.Variant != first.Plan.Variant || second.Plan.Procs != first.Plan.Procs {
		t.Fatalf("cached plan differs: %v vs %v", second.Plan, first.Plan)
	}
	st := s.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Planned != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.HitRate())
	}
}

func TestServerSolveMatchesDirectPath(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 8})
	a, b, xTrue := buildSystem(128, 8, 23)
	res, err := s.Submit(SubmitRequest{A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.X {
		if math.Abs(res.X[j]-xTrue[j]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", j, res.X[j], xTrue[j])
		}
	}
	if res.CondEst <= 0 {
		t.Fatalf("condition estimate not recorded: %g", res.CondEst)
	}
}

func TestServerConditionAwareRoutingPerBucket(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 8})
	m, n := 256, 8
	// Well-conditioned and ill-conditioned requests of the same shape
	// must land on DIFFERENT cache lines and different variants.
	well, err := s.Submit(SubmitRequest{A: RandomMatrix(m, n, 24)})
	if err != nil {
		t.Fatal(err)
	}
	ill, err := s.Submit(SubmitRequest{A: RandomWithCond(m, n, 1e10, 25), CondEst: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if ill.PlanCacheHit {
		t.Fatal("κ=1e10 request reused the well-conditioned plan line")
	}
	switch well.Plan.Variant {
	case VariantCACQR2, VariantPanelCACQR2:
	default:
		t.Fatalf("well-conditioned plan variant %s", well.Plan.Variant)
	}
	switch ill.Plan.Variant {
	case VariantShiftedCQR3, VariantTSQR:
	default:
		t.Fatalf("ill-conditioned plan variant %s", ill.Plan.Variant)
	}
	if o := OrthogonalityError(ill.Q); o > 1e-8 {
		t.Fatalf("ill-conditioned factors lost orthogonality: %g", o)
	}
	// Same decade (κ-bucket 10 covers (1e9, 1e10]), different κ: shares
	// the ill bucket's cached plan.
	again, err := s.Submit(SubmitRequest{A: RandomWithCond(m, n, 4e9, 26), CondEst: 4e9})
	if err != nil {
		t.Fatal(err)
	}
	if !again.PlanCacheHit {
		t.Fatal("κ=4e9 should hit the κ=1e10 bucket's plan")
	}
	// An unhinted ill-conditioned request measures its own κ and still
	// routes off the plain family.
	measured, err := s.Submit(SubmitRequest{A: RandomWithCond(m, n, 1e10, 27)})
	if err != nil {
		t.Fatal(err)
	}
	if measured.CondEst < 1e8 {
		t.Fatalf("measured κ = %g, want ≳ 1e8", measured.CondEst)
	}
	if o := OrthogonalityError(measured.Q); o > 1e-8 {
		t.Fatalf("unhinted ill-conditioned factors lost orthogonality: %g", o)
	}
}

func TestServerConcurrentMixedTraffic(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 8, RankBudget: 16})
	type workload struct {
		m, n int
		cond float64
	}
	loads := []workload{
		{128, 8, 0},
		{256, 8, 0},
		{256, 16, 0},
		{128, 8, 1e10},
		{256, 16, 1e10},
	}
	const rounds = 4
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, w := range loads {
			wg.Add(1)
			go func(w workload, seed int64) {
				defer wg.Done()
				var a *Dense
				if w.cond > 1 {
					a = RandomWithCond(w.m, w.n, w.cond, seed)
				} else {
					a = RandomMatrix(w.m, w.n, seed)
				}
				b := make([]float64, w.m)
				for i := range b {
					b[i] = 1
				}
				res, err := s.Submit(SubmitRequest{A: a, B: b, CondEst: w.cond})
				if err != nil {
					t.Errorf("%dx%d κ=%g: %v", w.m, w.n, w.cond, err)
					return
				}
				for _, v := range res.X {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%dx%d κ=%g: non-finite solution", w.m, w.n, w.cond)
						return
					}
				}
			}(w, int64(100+r*len(loads)+i))
		}
	}
	wg.Wait()
	st := s.Stats()
	want := int64(len(loads) * rounds)
	if st.Requests != want {
		t.Fatalf("requests %d, want %d", st.Requests, want)
	}
	// 5 distinct keys: everything beyond the 5 cold lookups must have
	// been amortized (cache hit or batch join).
	if st.Planned != int64(len(loads)) {
		t.Fatalf("planned %d, want %d: %+v", st.Planned, len(loads), st)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("no amortization under repeated traffic: %+v", st)
	}
	if st.InFlightRanks != 0 {
		t.Fatalf("rank tokens leaked: %+v", st)
	}
}

func TestServerEviction(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 4, CacheEntries: 2})
	shapes := [][2]int{{128, 8}, {256, 8}, {512, 8}}
	for i, sh := range shapes {
		if _, err := s.Submit(SubmitRequest{A: RandomMatrix(sh[0], sh[1], int64(30+i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("eviction accounting: %+v", st)
	}
	// The first shape was evicted: resubmitting plans again.
	res, err := s.Submit(SubmitRequest{A: RandomMatrix(128, 8, 33)})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Fatal("evicted key reported a hit")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerOptions{Options: Options{Workers: -1}}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	if _, err := NewServer(ServerOptions{Options: Options{CondEst: 10}}); err == nil {
		t.Fatal("server-wide CondEst accepted")
	}
	if _, err := NewServer(ServerOptions{Procs: -4}); err == nil {
		t.Fatal("negative default budget accepted")
	}
	s := newTestServer(t, ServerOptions{})
	if _, err := s.Submit(SubmitRequest{}); err == nil {
		t.Fatal("nil matrix accepted")
	}
	a := RandomMatrix(64, 8, 34)
	if _, err := s.Submit(SubmitRequest{A: a, B: make([]float64, 5)}); err == nil {
		t.Fatal("mismatched rhs accepted")
	}
	if _, err := s.Submit(SubmitRequest{A: a, CondEst: -3}); err == nil {
		t.Fatal("negative CondEst accepted")
	}
	if _, err := s.Submit(SubmitRequest{A: a, Procs: -1}); err == nil {
		t.Fatal("negative procs accepted")
	}
	// Rank-deficient solve must error, not return garbage.
	dead, b := rankDeficient(64, 8, 35)
	if _, err := s.Submit(SubmitRequest{A: dead, B: b}); err == nil {
		t.Fatal("rank-deficient solve accepted")
	}
}

func TestServerCloseDrains(t *testing.T) {
	s, err := NewServer(ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s.Submit(SubmitRequest{A: RandomMatrix(128, 8, seed)}) //nolint:errcheck
		}(int64(40 + i))
	}
	time.Sleep(time.Millisecond)
	s.Close()
	wg.Wait()
	if _, err := s.Submit(SubmitRequest{A: RandomMatrix(128, 8, 44)}); err == nil {
		t.Fatal("post-Close Submit accepted")
	}
}
