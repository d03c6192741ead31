package obs

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"context"
	"strings"
	"testing"
	"time"
)

// The disabled path is a contract, not a convention: every operation on
// nil tracers, traces, spans, stages, and registries must no-op without
// panicking, because the untraced hot path calls all of them
// unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	trace, ctx := tr.Start(context.Background(), "req")
	if trace != nil {
		t.Fatal("nil tracer produced a trace")
	}
	if trace.ID() != "" || trace.Root() != nil {
		t.Fatal("nil trace leaked identity")
	}
	trace.Finish()
	if _, ok := tr.Get("x"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if tr.Metrics() != nil {
		t.Fatal("nil tracer returned a registry")
	}

	var sp *Span
	if c := sp.Child("c"); c != nil {
		t.Fatal("nil span produced a child")
	}
	sp.Stage("s").SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.End()
	if sp.Duration() != 0 || sp.Attr("k") != nil {
		t.Fatal("nil span carried state")
	}
	if d := sp.Data(); d.Name != "" || len(d.Children) != 0 {
		t.Fatal("nil span produced data")
	}
	// Nil-safe means free: every transport collective calls these on the
	// untraced path, so a value boxed on the way to the nil check would
	// be one heap object per collective per rank.
	words := int64(1 << 20)
	if n := testing.AllocsPerRun(100, func() {
		c := sp.Collective("bcast")
		c.SetInt("bytes", words)
		c.SetFloat("time", float64(words))
		c.SetStr("op", "bcast")
		c.End()
		words++
	}); n != 0 {
		t.Fatalf("nil span setters allocate %v objects per call", n)
	}

	if got := FromContext(ctx); got != nil {
		t.Fatal("untraced context carried a span")
	}
	if got := ContextWith(ctx, nil); got != ctx {
		t.Fatal("ContextWith(nil) should return ctx unchanged")
	}

	var reg *Registry
	reg.Counter("c", "h").Add(1)
	reg.Histogram("h", "h").Observe(time.Second)
	reg.GaugeFunc("g", "h", func() float64 { return 1 })
	reg.WritePrometheus(&strings.Builder{})
	if reg.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	trace, ctx := tr.Start(context.Background(), "factorize")
	if trace == nil || trace.ID() == "" {
		t.Fatal("default tracer should sample every request")
	}
	root := FromContext(ctx)
	if root == nil || root != trace.Root() {
		t.Fatal("ctx does not carry the root span")
	}
	s1 := root.Stage("plan")
	s1.SetBool("cache_hit", true)
	time.Sleep(time.Millisecond)
	s1.End()
	c1 := root.Collective("allreduce")
	c1.SetInt("bytes", 2048)
	c1.End()
	trace.Finish()

	td, ok := tr.Get(trace.ID())
	if !ok {
		t.Fatalf("finished trace %s not retained", trace.ID())
	}
	if len(td.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(td.Root.Children))
	}
	plan := td.Root.Children[0]
	if plan.Name != "plan" || plan.Kind != KindStage {
		t.Fatalf("first child = %+v", plan)
	}
	if plan.Duration < int64(time.Millisecond) {
		t.Fatalf("plan stage duration %dns, want ≥ 1ms", plan.Duration)
	}
	if plan.Attrs["cache_hit"] != true {
		t.Fatalf("plan attrs = %v", plan.Attrs)
	}
	if td.Root.Duration < plan.Duration {
		t.Fatal("root shorter than its child")
	}

	// The finished tree must have aggregated into the registry.
	var b strings.Builder
	tr.Metrics().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`cacqr_stage_seconds{stage="plan",quantile="0.5"}`,
		`cacqr_collectives_total{op="allreduce"} 1`,
		`cacqr_collective_payload_bytes_total{op="allreduce"} 2048`,
		"# TYPE cacqr_stage_seconds summary",
		"cacqr_stage_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSampling(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 9; i++ {
		trace, _ := tr.Start(context.Background(), "r")
		if trace != nil {
			sampled++
			trace.Finish()
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 at 1-in-3", sampled)
	}
	off := NewTracer(TracerOptions{SampleEvery: -1})
	if trace, _ := off.Start(context.Background(), "r"); trace != nil {
		t.Fatal("negative sampling still traced")
	}
}

func TestRetentionRingBounded(t *testing.T) {
	tr := NewTracer(TracerOptions{Retain: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		trace, _ := tr.Start(context.Background(), "r")
		trace.Finish()
		ids = append(ids, trace.ID())
	}
	for i, id := range ids {
		if _, ok := tr.Get(id); ok != (i >= 3) {
			t.Fatalf("trace %d of %v retrievable = %v, want only the last two retained", i, ids, ok)
		}
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxSpans: 4})
	trace, _ := tr.Start(context.Background(), "r")
	root := trace.Root()
	made := 0
	for i := 0; i < 10; i++ {
		if c := root.Child("c"); c != nil {
			made++
			c.End()
		}
	}
	if made != 3 { // root consumed 1 of the 4
		t.Fatalf("made %d children under a 4-span cap, want 3", made)
	}
	trace.Finish()
	td, _ := tr.Get(trace.ID())
	if td.DroppedSpans != 7 {
		t.Fatalf("dropped %d, want 7", td.DroppedSpans)
	}
}

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", L("variant", "cqr2"), L("hit", "true")).Add(2)
	r.Counter("reqs_total", "requests", L("hit", "true"), L("variant", "cqr2")).Add(1)
	r.GaugeFunc("depth", "queue depth", func() float64 { return 7 })
	r.Histogram("lat", "latency").Observe(250 * time.Millisecond)

	// Label order must not fork series.
	if got := r.Counter("reqs_total", "requests", L("variant", "cqr2"), L("hit", "true")).Value(); got != 3 {
		t.Fatalf("series forked by label order: %d", got)
	}
	snap := r.Snapshot()
	if snap[`reqs_total{hit="true",variant="cqr2"}`] != int64(3) {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["depth"] != 7.0 {
		t.Fatalf("gauge snapshot = %v", snap["depth"])
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{hit="true",variant="cqr2"} 3`,
		"# TYPE depth gauge",
		"depth 7",
		`lat{quantile="0.99"} 0.25`,
		"lat_count 1",
		"lat_sum 0.25",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
