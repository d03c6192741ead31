package cacqr

import (
	"fmt"
	"sync"
	"testing"
)

func findChild(sp SpanData, name string) (SpanData, bool) {
	for _, c := range sp.Children {
		if c.Name == name {
			return c, true
		}
	}
	return SpanData{}, false
}

func attrInt(t *testing.T, sp SpanData, key string) int64 {
	t.Helper()
	v, ok := sp.Attrs[key].(int64)
	if !ok {
		t.Fatalf("span %s: attr %q = %v (%T), want int64", sp.Name, key, sp.Attrs[key], sp.Attrs[key])
	}
	return v
}

// checkRunSpan walks execute → run → rank spans and returns the run
// span, asserting the structural contract shared by both transports.
func checkRunSpan(t *testing.T, root SpanData, transport string, wantRanks int) SpanData {
	t.Helper()
	exec, ok := findChild(root, "execute")
	if !ok {
		t.Fatalf("no execute stage under root: %+v", names(root.Children))
	}
	run, ok := findChild(exec, "run")
	if !ok {
		t.Fatalf("no run span under execute: %+v", names(exec.Children))
	}
	if got := run.Attrs["transport"]; got != transport {
		t.Fatalf("run transport = %v, want %s", got, transport)
	}
	ranks := 0
	for _, c := range run.Children {
		if c.Kind == "rank" {
			ranks++
		}
	}
	if ranks != wantRanks {
		t.Fatalf("run has %d rank spans, want %d", ranks, wantRanks)
	}
	return run
}

func names(cs []SpanData) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// A traced Submit on the simulated transport must produce the full
// span tree of the ISSUE's acceptance criteria: request stages
// (condest → plan → gate → execute) whose durations account for the
// end-to-end latency, an execute→run→rank hierarchy, and kernel stage
// plus collective spans under every rank.
func TestTracedSubmitSim(t *testing.T) {
	tracer := NewTracer(TracerOptions{})
	srv, err := NewServer(ServerOptions{
		Procs:   8,
		Options: Options{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := srv.Submit(SubmitRequest{A: RandomMatrix(1024, 64, 42), CondEst: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("traced submit returned no TraceID")
	}
	td, ok := tracer.Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	root := td.Root
	if root.Name != "factorize" {
		t.Fatalf("root span = %q", root.Name)
	}
	if got := attrInt(t, root, "m"); got != 1024 {
		t.Fatalf("root m = %d", got)
	}
	if got := root.Attrs["variant"]; got != string(res.Plan.Variant) {
		t.Fatalf("root variant = %v, plan says %s", got, res.Plan.Variant)
	}
	if got := root.Attrs["cache_hit"]; got != false {
		t.Fatalf("cold request marked cache_hit=%v", got)
	}

	// Every request stage must be present, in order.
	wantStages := []string{"condest", "plan", "gate", "execute"}
	if got := names(root.Children); len(got) != len(wantStages) {
		t.Fatalf("root children = %v, want %v", got, wantStages)
	}
	var sum int64
	for i, name := range wantStages {
		c := root.Children[i]
		if c.Name != name || c.Kind != "stage" {
			t.Fatalf("root child %d = %s/%s, want stage/%s", i, c.Kind, c.Name, name)
		}
		sum += c.Duration
	}
	// The stages are sequential and wrap all real work, so their sum
	// must essentially be the end-to-end latency: no more than the root
	// (they nest inside it), and missing at most the between-stage
	// bookkeeping. Typically >98%; the slack absorbs scheduler noise on
	// loaded CI machines.
	if sum > root.Duration {
		t.Fatalf("stage sum %dns exceeds root %dns", sum, root.Duration)
	}
	if sum < root.Duration*80/100 {
		t.Fatalf("stages cover %dns of %dns end-to-end (<80%%): untraced gap in the request path",
			sum, root.Duration)
	}

	run := checkRunSpan(t, root, "sim", res.Plan.Procs)
	// Each rank must carry kernel stage spans and collective spans with
	// payload bytes and peer counts.
	for _, rank := range run.Children {
		if rank.Kind != "rank" {
			continue
		}
		stages, colls := 0, 0
		for _, c := range rank.Children {
			switch c.Kind {
			case "stage":
				stages++
			case "collective":
				if attrInt(t, c, "bytes") < 0 || attrInt(t, c, "peers") < 2 {
					t.Fatalf("%s collective %s attrs = %v", rank.Name, c.Name, c.Attrs)
				}
				colls++
			}
		}
		if stages == 0 || colls == 0 {
			t.Fatalf("%s: %d stage and %d collective spans, want both > 0 (children %v)",
				rank.Name, stages, colls, names(rank.Children))
		}
		if attrInt(t, rank, "words") <= 0 {
			t.Fatalf("%s: no words charged: %v", rank.Name, rank.Attrs)
		}
	}

	// A warm repeat must be marked as a cache hit on its root span.
	res2, err := srv.Submit(SubmitRequest{A: RandomMatrix(1024, 64, 43), CondEst: 10})
	if err != nil {
		t.Fatal(err)
	}
	td2, ok := tracer.Get(res2.TraceID)
	if !ok {
		t.Fatal("second trace not retained")
	}
	if !res2.PlanCacheHit || td2.Root.Attrs["cache_hit"] != true {
		t.Fatalf("warm request: PlanCacheHit=%v root attrs=%v", res2.PlanCacheHit, td2.Root.Attrs)
	}
}

// Without a tracer every request is untraced: no TraceID, no overhead
// beyond nil checks.
func TestUntracedSubmitHasNoTraceID(t *testing.T) {
	srv, err := NewServer(ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Submit(SubmitRequest{A: RandomMatrix(256, 16, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Fatalf("untraced submit returned TraceID %q", res.TraceID)
	}
}

// On the TCP backend the rank spans carry real wire bytes, collected
// from the workers' counters: their sum must equal the run's
// total_bytes (the transport.Stats aggregate) exactly, and the maximum
// must be the per-processor byte cost the result reports.
func TestTracedSubmitTCPBytesMatchCounters(t *testing.T) {
	addrs := startLocalWorkers(t, 3)
	tracer := NewTracer(TracerOptions{})
	srv, err := NewServer(ServerOptions{
		Procs:   4,
		Options: Options{Transport: TCPTransport(addrs...), Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := srv.Submit(SubmitRequest{A: RandomMatrix(512, 32, 11), CondEst: 100})
	if err != nil {
		t.Fatal(err)
	}
	td, ok := tracer.Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	run := checkRunSpan(t, td.Root, "tcp", res.Plan.Procs)

	var sum, max int64
	for _, rank := range run.Children {
		if rank.Kind != "rank" {
			continue
		}
		b := attrInt(t, rank, "bytes")
		if b <= 0 {
			t.Fatalf("%s: wire bytes = %d, want > 0 on TCP", rank.Name, b)
		}
		sum += b
		if b > max {
			max = b
		}
	}
	if total := attrInt(t, run, "total_bytes"); sum != total {
		t.Fatalf("sum of rank span bytes %d != run total_bytes %d", sum, total)
	}
	if max != res.Stats.Bytes {
		t.Fatalf("max rank span bytes %d != reported per-processor bytes %d", max, res.Stats.Bytes)
	}
}

// Satellite: transport counters under concurrent collectives. Several
// Submits run at once over the same TCP worker pool, each traced; every
// trace's per-rank byte attribution must still sum to exactly its own
// run's transport.Counters total — concurrency must not bleed one
// run's accounting into another's.
func TestConcurrentTCPRunsKeepCountersSeparate(t *testing.T) {
	addrs := startLocalWorkers(t, 3)
	tracer := NewTracer(TracerOptions{})
	srv, err := NewServer(ServerOptions{
		Procs:   4,
		Options: Options{Transport: TCPTransport(addrs...), Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Shapes tall enough that the planner picks a multi-rank plan (a
	// single-rank run moves no wire bytes and would test nothing).
	shapes := []int{512, 640, 768, 896}
	ids := make([]string, len(shapes))
	procs := make([]int, len(shapes))
	var wg sync.WaitGroup
	errs := make([]error, len(shapes))
	for i, m := range shapes {
		wg.Add(1)
		go func(i, m int) {
			defer wg.Done()
			res, err := srv.Submit(SubmitRequest{A: RandomMatrix(m, 32, int64(i)), CondEst: 10})
			if err != nil {
				errs[i] = err
				return
			}
			if res.TraceID == "" {
				errs[i] = fmt.Errorf("shape %d: no trace id", m)
				return
			}
			ids[i] = res.TraceID
			procs[i] = res.Plan.Procs
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("trace id %s reused across concurrent requests", id)
		}
		seen[id] = true
		td, ok := tracer.Get(id)
		if !ok {
			t.Fatalf("trace %s not retained", id)
		}
		if procs[i] < 2 {
			t.Fatalf("request %d (m=%d): planner chose %d ranks; the test needs wire traffic", i, shapes[i], procs[i])
		}
		run := checkRunSpan(t, td.Root, "tcp", procs[i])
		var sum int64
		for _, rank := range run.Children {
			if rank.Kind == "rank" {
				sum += attrInt(t, rank, "bytes")
			}
		}
		if total := attrInt(t, run, "total_bytes"); sum != total || sum <= 0 {
			t.Fatalf("request %d (m=%d): rank byte sum %d vs total_bytes %d", i, shapes[i], sum, total)
		}
	}
}
