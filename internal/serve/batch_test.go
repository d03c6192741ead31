package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacqr/internal/plan"
)

// Saturating the pending bound must refuse promptly with ErrOverloaded —
// no queueing, no deadlock — while every admitted request completes.
func TestOverloadRefusesPromptlyWithoutDroppingWork(t *testing.T) {
	const maxPending = 4
	release := make(chan struct{})
	s := New(Config{MaxPending: maxPending})
	defer s.Close()

	var started sync.WaitGroup
	var execDone int64
	errCh := make(chan error, maxPending)
	for i := 0; i < maxPending; i++ {
		started.Add(1)
		go func() {
			_, _, err := s.Do(context.Background(), req(256, 8, 4, 0), func(plan.Plan) error {
				started.Done()
				<-release
				atomic.AddInt64(&execDone, 1)
				return nil
			})
			errCh <- err
		}()
	}
	started.Wait() // all maxPending slots held by executing requests

	// The next request must fail fast, not wait for capacity.
	t0 := time.Now()
	_, _, err := s.Do(context.Background(), req(256, 8, 4, 0), nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated Do: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("overload refusal took %v, want prompt", d)
	}
	st := s.Stats()
	if st.Overloaded != 1 || st.Pending != maxPending || st.MaxPending != maxPending {
		t.Fatalf("under saturation: %+v", st)
	}

	// DoBatch respects the same bound in units.
	if _, _, err := s.DoBatch(context.Background(), req(256, 8, 4, 0), 1, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated DoBatch: err = %v, want ErrOverloaded", err)
	}

	// No dropped in-flight work: every admitted request completes.
	close(release)
	for i := 0; i < maxPending; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if got := atomic.LoadInt64(&execDone); got != maxPending {
		t.Fatalf("%d of %d admitted execs ran", got, maxPending)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after drain", st.Pending)
	}
}

// A batch larger than the whole bound must be refused outright rather
// than admitted partially.
func TestDoBatchLargerThanBoundIsRefused(t *testing.T) {
	s := New(Config{MaxPending: 8})
	defer s.Close()
	if _, _, err := s.DoBatch(context.Background(), req(256, 8, 4, 0), 9, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch: err = %v, want ErrOverloaded", err)
	}
	if _, _, err := s.DoBatch(context.Background(), req(256, 8, 4, 0), 8, nil); err != nil {
		t.Fatalf("exact-fit batch: %v", err)
	}
}

// DoBatch: one plan resolution and one exec for n request units, with
// the counters and histograms accounting for all n.
func TestDoBatchSharesOnePlanAndExec(t *testing.T) {
	var planCalls, execCalls int64
	s := New(Config{
		Plan: func(r plan.Request) (plan.Plan, error) {
			atomic.AddInt64(&planCalls, 1)
			return plan.Best(r)
		},
	})
	defer s.Close()

	const n = 57
	_, hit, err := s.DoBatch(context.Background(), req(512, 32, 8, 10), n, func(plan.Plan) error {
		atomic.AddInt64(&execCalls, 1)
		return nil
	})
	if err != nil || hit {
		t.Fatalf("cold batch: hit=%v err=%v", hit, err)
	}
	if planCalls != 1 || execCalls != 1 {
		t.Fatalf("planCalls=%d execCalls=%d, want 1 and 1", planCalls, execCalls)
	}
	st := s.Stats()
	if st.Requests != n || st.FusedBatches != 1 || st.FusedRequests != n {
		t.Fatalf("batch accounting: %+v", st)
	}
	key := plan.KeyFor(req(512, 32, 8, 10)).String()
	if lat, ok := st.Latencies[key]; !ok || lat.Count != n {
		t.Fatalf("latency histogram for %q: %+v (ok=%v)", key, lat, ok)
	}
	// A second batch hits the cache.
	if _, hit, err := s.DoBatch(context.Background(), req(512, 32, 8, 10), 3, nil); err != nil || !hit {
		t.Fatalf("warm batch: hit=%v err=%v", hit, err)
	}
	if planCalls != 1 {
		t.Fatalf("warm batch re-planned: planCalls=%d", planCalls)
	}
}

func TestDoBatchRejectsNonPositiveCount(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, _, err := s.DoBatch(context.Background(), req(256, 8, 4, 0), 0, nil); err == nil {
		t.Fatal("DoBatch(0) must error")
	}
}

// The full concurrent mix — Submit-style Do, DoBatch, Stats, and a
// mid-flight Close — exercised for the race detector.
func TestConcurrentBatchFuseStatsClose(t *testing.T) {
	s := New(Config{MaxPending: 64})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				r := req(256+64*(g%3), 8, 4, 0)
				if i%2 == 0 {
					s.Do(context.Background(), r, func(plan.Plan) error { return nil })
				} else {
					s.DoBatch(context.Background(), r, 3, func(plan.Plan) error { return nil })
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				s.Stats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		s.Close() // close while requests are mid-flight
	}()
	wg.Wait()
	s.Close()
	// Post-close invariant: nothing pending, everything accounted.
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after close", st.Pending)
	}
}
