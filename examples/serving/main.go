// Serving: drive mixed-shape, mixed-κ traffic through the plan-caching
// factorization service and watch the planning cost amortize.
//
// The ROADMAP's north star is a long-lived process serving heavy
// factorization/least-squares traffic. The expensive per-request choice
// — which (c, d, variant) to run — depends only on the workload's shape,
// machine, budget, and κ-bucket, so cacqr.Server makes it once per
// distinct key and answers the rest from an LRU. This example fires
// three shapes × two conditioning regimes concurrently, repeats each,
// and prints per-workload routing plus throughput and the cache-hit
// rate. It then switches to throughput mode: the same flood of
// same-shape requests submitted one at a time versus one SubmitBatch
// call, which fuses the whole group into one plan lookup, one gate
// admission and one pool dispatch (each item's CholeskyQR2 on one
// worker) — and closes with the per-key latency quantiles the server
// accumulated.
//
//	go run ./examples/serving            # in-process cacqr.Server
//	go run ./examples/serving -addr http://127.0.0.1:8377 -rounds 1
//	                                     # same traffic over HTTP to cacqrd
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	cacqr "cacqr"
)

type workload struct {
	name string
	m, n int
	cond float64 // >1: prescribed κ₂; else well-conditioned
}

var workloads = []workload{
	{"tall-skinny", 512, 8, 0},
	{"tall-skinny κ=1e10", 512, 8, 1e10},
	{"rectangular", 256, 16, 0},
	{"rectangular κ=1e10", 256, 16, 1e10},
	{"blocky", 128, 32, 0},
	{"blocky κ=1e10", 128, 32, 1e10},
}

func main() {
	addr := flag.String("addr", "", "cacqrd base URL (empty = in-process cacqr.Server)")
	rounds := flag.Int("rounds", 4, "requests per workload")
	procs := flag.Int("procs", 8, "per-request planning budget")
	flag.Parse()
	if *addr != "" {
		if err := driveHTTP(*addr, *rounds, *procs); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := driveInProcess(*rounds, *procs); err != nil {
		log.Fatal(err)
	}
}

func driveInProcess(rounds, procs int) error {
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: procs})
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Printf("firing %d workloads × %d rounds concurrently through cacqr.Server (procs ≤ %d)\n\n",
		len(workloads), rounds, procs)
	type line struct {
		variant string
		grid    string
		hits    int
	}
	var mu sync.Mutex
	routes := make(map[string]*line)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, w := range workloads {
			wg.Add(1)
			go func(w workload, seed int64) {
				defer wg.Done()
				var a *cacqr.Dense
				if w.cond > 1 {
					a = cacqr.RandomWithCond(w.m, w.n, w.cond, seed)
				} else {
					a = cacqr.RandomMatrix(w.m, w.n, seed)
				}
				b := make([]float64, w.m)
				for i := range b {
					b[i] = float64(i%7) - 3
				}
				res, err := srv.Submit(cacqr.SubmitRequest{A: a, B: b, CondEst: w.cond})
				if err != nil {
					log.Fatalf("%s: %v", w.name, err)
				}
				mu.Lock()
				l, ok := routes[w.name]
				if !ok {
					l = &line{variant: string(res.Plan.Variant), grid: res.Plan.GridString()}
					routes[w.name] = l
				}
				if res.PlanCacheHit {
					l.hits++
				}
				mu.Unlock()
			}(w, int64(1000+r*len(workloads)+i))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	names := make([]string, 0, len(routes))
	for name := range routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := routes[name]
		fmt.Printf("  %-22s → %-13s %-8s plan cached on %d/%d requests\n",
			name, l.variant, l.grid, l.hits, rounds)
	}
	st := srv.Stats()
	total := len(workloads) * rounds
	fmt.Printf("\n%d solves in %v — %.0f req/s\n", total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Printf("plan cache: %d hits, %d misses (%d planned, %d batched), %d evictions, %d entries\n",
		st.Hits, st.Misses, st.Planned, st.Batched, st.Evictions, st.Entries)
	fmt.Printf("cache-hit rate: %.0f%% — the planner ran once per (shape, κ-bucket), not once per request\n",
		100*st.HitRate())
	if st.HitRate() <= 0 {
		return fmt.Errorf("expected repeated same-key traffic to hit the plan cache")
	}
	return driveBatched(srv, procs)
}

// driveBatched floods the server with one same-shape workload, first one
// Submit at a time and then as a single SubmitBatch — the throughput
// mode that runs the group as one pool dispatch of sequential
// CholeskyQR2s — and prints the speedup plus the per-key latency
// quantiles.
func driveBatched(srv *cacqr.Server, procs int) error {
	const nb, m, n = 64, 512, 32
	reqs := make([]cacqr.SubmitRequest, nb)
	for i := range reqs {
		reqs[i] = cacqr.SubmitRequest{A: cacqr.RandomMatrix(m, n, int64(5000+i)), Procs: procs, CondEst: 10}
	}
	fmt.Printf("\nthroughput mode: %d × %d×%d factorizations, per-request vs fused batch\n", nb, m, n)

	start := time.Now()
	for i := range reqs {
		if _, err := srv.Submit(reqs[i]); err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}
	perReq := time.Since(start)

	start = time.Now()
	for i, it := range srv.SubmitBatch(reqs) {
		if it.Err != nil {
			return fmt.Errorf("batch item %d: %w", i, it.Err)
		}
	}
	fused := time.Since(start)

	fmt.Printf("  per-request Submit loop: %8v  (%.0f req/s)\n",
		perReq.Round(time.Millisecond), float64(nb)/perReq.Seconds())
	fmt.Printf("  one SubmitBatch call:    %8v  (%.0f req/s) — %.1fx\n",
		fused.Round(time.Millisecond), float64(nb)/fused.Seconds(), float64(perReq)/float64(fused))

	st := srv.Stats()
	fmt.Printf("  fused: %d batches covering %d requests\n\nper-key latency quantiles:\n", st.FusedBatches, st.FusedRequests)
	keys := make([]string, 0, len(st.Latencies))
	for k := range st.Latencies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := st.Latencies[k]
		fmt.Printf("  %-34s n=%-5d p50=%-9v p95=%-9v p99=%v\n", k, s.Count,
			secs(s.P50), secs(s.P95), secs(s.P99))
	}
	return nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond)
}

// driveHTTP fires one workload sweep at a running cacqrd and prints the
// wire responses — the round-trip CI smokes.
func driveHTTP(base string, rounds, procs int) error {
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	resp.Body.Close() //nolint:errcheck
	for r := 0; r < rounds; r++ {
		for i, w := range workloads {
			b := make([]float64, w.m)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			body, err := json.Marshal(map[string]any{
				"m": w.m, "n": w.n,
				"gen":     map[string]any{"seed": 1000 + r*len(workloads) + i, "cond": w.cond},
				"b":       b,
				"procs":   procs,
				"condest": w.cond,
			})
			if err != nil {
				return err
			}
			resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			var out struct {
				Variant      string  `json:"variant"`
				Grid         string  `json:"grid"`
				PlanCacheHit bool    `json:"plan_cache_hit"`
				CondEst      float64 `json:"cond_est"`
				Error        string  `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close() //nolint:errcheck
			if err != nil {
				return fmt.Errorf("%s: decoding response: %w", w.name, err)
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d: %s", w.name, resp.StatusCode, out.Error)
			}
			fmt.Printf("  %-22s → %-13s %-8s cached=%v κ≈%.1g\n",
				w.name, out.Variant, out.Grid, out.PlanCacheHit, out.CondEst)
		}
	}
	var stats map[string]any
	resp, err = client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	fmt.Printf("\ndaemon stats: %v\n", stats)
	return nil
}
