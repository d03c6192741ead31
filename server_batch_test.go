package cacqr

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// The acceptance contract: fused SubmitBatch results match per-request
// Submit results to 1e-13, item for item, Q, R, and X alike.
func TestSubmitBatchMatchesPerRequestSubmit(t *testing.T) {
	const nb = 24
	reqs := make([]SubmitRequest, nb)
	for i := range reqs {
		a := RandomMatrix(512, 32, int64(300+i))
		b := make([]float64, a.Rows)
		for j := range b {
			b[j] = float64(j%17) - 8
		}
		reqs[i] = SubmitRequest{A: a, B: b, Procs: 8, CondEst: 10}
	}

	batched := newTestServer(t, ServerOptions{Procs: 8})
	items := batched.SubmitBatch(reqs)

	serial := newTestServer(t, ServerOptions{Procs: 8})
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if !it.Result.Fused {
			t.Fatalf("item %d did not take the fused path (plan %v)", i, it.Result.Plan.Variant)
		}
		want, err := serial.Submit(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(it.Result.Q.Data, want.Q.Data); d > 1e-13 {
			t.Fatalf("item %d: fused Q differs from per-request Q by %g", i, d)
		}
		if d := maxAbsDiff(it.Result.R.Data, want.R.Data); d > 1e-13 {
			t.Fatalf("item %d: fused R differs from per-request R by %g", i, d)
		}
		if d := maxAbsDiff(it.Result.X, want.X); d > 1e-10 {
			t.Fatalf("item %d: fused X differs from per-request X by %g", i, d)
		}
		if o := OrthogonalityError(it.Result.Q); o > 1e-10 {
			t.Fatalf("item %d: fused orthogonality %g", i, o)
		}
		if r := ResidualNorm(reqs[i].A, it.Result.Q, it.Result.R); r > 1e-10 {
			t.Fatalf("item %d: fused residual %g", i, r)
		}
	}

	st := batched.Stats()
	if st.FusedBatches < 1 || st.FusedRequests != nb {
		t.Fatalf("fused accounting: %+v", st)
	}
	if len(st.Latencies) == 0 {
		t.Fatal("no latency histograms recorded")
	}
}

// A fused run reports the flop count the unfused run of the same plan
// measures: Submit and SubmitBatch of one matrix agree on Stats.Flops,
// on the plain route and on the shifted one. On one rank the plain route
// is the CA-CQR2 row on 1 × 1 × 1, which still fuses.
func TestSubmitBatchFlopsMatchSubmit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		req     SubmitRequest
		variant Variant
	}{
		{"plain", SubmitRequest{A: RandomMatrix(512, 32, 21)}, VariantCACQR2},
		{"cond1e10", SubmitRequest{A: RandomWithCond(512, 32, 1e10, 22), CondEst: 1e10}, VariantShiftedCQR3},
	} {
		srv := newTestServer(t, ServerOptions{Procs: 1})
		one, err := srv.Submit(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		it := srv.SubmitBatch([]SubmitRequest{tc.req})[0]
		if it.Err != nil {
			t.Fatalf("%s: %v", tc.name, it.Err)
		}
		if !it.Result.Fused || one.Fused {
			t.Fatalf("%s: fused flags: batch %v, submit %v", tc.name, it.Result.Fused, one.Fused)
		}
		if p := it.Result.Plan; p.Variant != tc.variant || p.Procs != 1 {
			t.Fatalf("%s: batch ran %v, want %s on one rank", tc.name, p, tc.variant)
		}
		if it.Result.Stats.Flops != one.Stats.Flops {
			t.Errorf("%s (%s): SubmitBatch reports %d flops, Submit %d", tc.name, one.Plan.Variant, it.Result.Stats.Flops, one.Stats.Flops)
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// Mixed batches: invalid and ill-conditioned members get their own
// errors without failing the healthy ones; mixed shapes form separate
// fused groups.
func TestSubmitBatchIsolatesFailuresAndMixedShapes(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 8})
	reqs := []SubmitRequest{
		{A: RandomMatrix(256, 16, 1), CondEst: 10},
		{A: nil}, // invalid
		{A: RandomMatrix(128, 8, 2), CondEst: 10},         // different key
		{A: RandomMatrix(256, 16, 3), B: []float64{1, 2}}, // bad rhs length
		{A: RandomMatrix(256, 16, 4), CondEst: 10},        // same key as [0]
	}
	items := s.SubmitBatch(reqs)
	if items[1].Err == nil || items[3].Err == nil {
		t.Fatalf("invalid items must error: %v / %v", items[1].Err, items[3].Err)
	}
	for _, i := range []int{0, 2, 4} {
		if items[i].Err != nil {
			t.Fatalf("healthy item %d: %v", i, items[i].Err)
		}
		if o := OrthogonalityError(items[i].Result.Q); o > 1e-10 {
			t.Fatalf("item %d orthogonality %g", i, o)
		}
	}
	if items[0].Result.Plan.Variant == items[2].Result.Plan.Variant &&
		items[0].Result.Plan.Procs == items[2].Result.Plan.Procs &&
		reqs[0].A.Rows == reqs[2].A.Rows {
		t.Fatal("distinct shapes collapsed into one group")
	}
}

// An empty batch is a no-op, not a panic.
func TestSubmitBatchEmpty(t *testing.T) {
	s := newTestServer(t, ServerOptions{})
	if items := s.SubmitBatch(nil); len(items) != 0 {
		t.Fatalf("empty batch returned %d items", len(items))
	}
}

// Overload through the public API: a batch that cannot fit the pending
// bound is refused whole with ErrOverloaded — promptly, without
// queueing — and the server keeps serving afterwards.
func TestServerOverloadPublicAPI(t *testing.T) {
	s := newTestServer(t, ServerOptions{Procs: 4, MaxPending: 2})
	t0 := time.Now()
	items := s.SubmitBatch([]SubmitRequest{
		{A: RandomMatrix(64, 4, 7)}, {A: RandomMatrix(64, 4, 8)}, {A: RandomMatrix(64, 4, 9)},
	})
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("overload refusal took %v, want prompt", d)
	}
	for i, it := range items {
		if !errors.Is(it.Err, ErrOverloaded) {
			t.Fatalf("item %d of oversized batch: err = %v, want ErrOverloaded", i, it.Err)
		}
	}
	if st := s.Stats(); st.Overloaded < 1 {
		t.Fatalf("overload not counted: %+v", st)
	}
	// Nothing admitted was dropped, and the server still serves.
	if _, err := s.Submit(SubmitRequest{A: RandomMatrix(64, 4, 10)}); err != nil {
		t.Fatalf("post-overload submit: %v", err)
	}
}

// The full public-API concurrency mix under -race: Submit, SubmitBatch,
// Stats, and Close racing a mid-flight batch.
func TestServerConcurrentSubmitBatchStatsClose(t *testing.T) {
	s, err := NewServer(ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				a := RandomMatrix(64+32*(g%2), 8, int64(g*100+i))
				if i%2 == 0 {
					s.Submit(SubmitRequest{A: a, CondEst: 10})
				} else {
					s.SubmitBatch([]SubmitRequest{{A: a, CondEst: 10}, {A: RandomMatrix(a.Rows, 8, int64(i)), CondEst: 10}})
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		s.Close() // close while batches are in flight
	}()
	wg.Wait()
	s.Close()
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after close", st.Pending)
	}
}
