package serve

import (
	"context"
	"sync"
	"testing"
)

// Regression: Stats used to gather counters under three separate locks
// (cache mutex, histogram mutex, server mutex), so a scrape racing
// with resolve could observe Lookups ≠ Hits+Misses — a torn snapshot.
// All counters now live under one Server.mu acquisition; this test
// hammers Do from many goroutines while scraping Stats concurrently
// and asserts the accounting invariants hold in every single snapshot.
// Run under -race it also guards the lock discipline itself.
func TestStatsSnapshotInvariants(t *testing.T) {
	s := New(Config{CacheEntries: 4})
	defer s.Close()

	const workers, iters = 8, 200
	shapes := []int{256, 512, 1024, 2048, 4096, 8192}

	var traffic, scrapers sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers: every snapshot, mid-traffic, must be self-consistent.
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.Lookups != st.Hits+st.Misses {
					t.Errorf("torn snapshot: Lookups %d != Hits %d + Misses %d",
						st.Lookups, st.Hits, st.Misses)
					return
				}
				if st.Misses != st.Batched+st.Leads {
					t.Errorf("torn snapshot: Misses %d != Batched %d + Leads %d",
						st.Misses, st.Batched, st.Leads)
					return
				}
				if st.Lookups > st.Requests {
					t.Errorf("torn snapshot: Lookups %d > Requests %d", st.Lookups, st.Requests)
					return
				}
			}
		}()
	}
	// Traffic: repeated keys for hits, a rotating cold key for
	// misses/evictions through the 4-entry cache.
	for g := 0; g < workers; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; i < iters; i++ {
				m := shapes[(g+i)%len(shapes)]
				if _, _, err := s.Do(context.Background(), req(m, 8, 4, 0), nil); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}(g)
	}
	// Stop scrapers only after traffic drains.
	traffic.Wait()
	close(stop)
	scrapers.Wait()

	st := s.Stats()
	if st.Requests != workers*iters {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*iters)
	}
	if st.Lookups != st.Requests {
		t.Fatalf("final Lookups = %d, want %d", st.Lookups, st.Requests)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("traffic mix did not exercise both paths: %+v", st)
	}
}
