// Package obs is the dependency-free tracing and metrics subsystem
// behind cacqr's observability surface: per-request span trees recording
// the pipeline's decomposition (admission → plan lookup → κ estimation →
// execution → per-pass kernel stages → per-collective transfers), a
// small counter/gauge/histogram registry with Prometheus text
// exposition, and runtime/trace task/region annotation of kernel stages.
//
// The design constraint is the disabled path: a Server without a Tracer
// must pay essentially nothing. Every method on *Span, *Trace, and
// *Tracer is nil-safe — the untraced request path carries nil
// pointers end to end and each instrumentation site is a nil check —
// so tracing can be threaded through the hot path unconditionally.
//
// The span stages mirror the paper's cost decomposition: each collective
// span carries its payload bytes and peer count (the α and β terms of
// one Table V line), each stage span its wall time and — for a grid
// line, whose stage is its ledger phase (transport.Traced) — the msgs,
// words and flops that line charged, and each rank span the
// transport's measured Counters — the measured data the ROADMAP's
// self-calibrating planner will fit α-β-γ from.
package obs

import (
	"context"
	"runtime/trace"
	"sync"
	"time"
)

// Span kinds. Kinds drive metric aggregation on Trace finish: stages
// feed the per-stage latency histograms, collectives the per-op byte
// counters, ranks the wire-byte totals. Plain Child spans are structure
// only.
const (
	KindStage      = "stage"
	KindCollective = "collective"
	KindRank       = "rank"
)

// spanLimit is the shared span budget of one trace: a hostile or
// pathological request (thousands of collectives) must not grow a trace
// without bound. Past the budget, Child returns nil — which, by
// nil-safety, silently disables deeper instrumentation — and the drop
// is counted.
type spanLimit struct {
	mu      sync.Mutex
	left    int
	dropped int64
}

func (l *spanLimit) take() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.left <= 0 {
		l.dropped++
		return false
	}
	l.left--
	return true
}

func (l *spanLimit) droppedCount() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Span is one timed node of a trace tree. All methods are nil-safe:
// calling them on a nil *Span is a no-op (Child returns nil), so
// instrumented code never branches on "is tracing on". A Span is safe
// for concurrent use — simulated ranks add children to the same run
// span from many goroutines.
type Span struct {
	mu       sync.Mutex
	name     string
	kind     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    map[string]any
	children []*Span
	limit    *spanLimit
	region   *trace.Region
}

func newSpan(name, kind string, limit *spanLimit) *Span {
	s := &Span{name: name, kind: kind, start: time.Now(), limit: limit}
	if trace.IsEnabled() {
		// runtime/trace regions must start and end on one goroutine;
		// every instrumentation site in this repo creates and ends its
		// span on the goroutine doing the work, so this holds.
		s.region = trace.StartRegion(context.Background(), name)
	}
	return s
}

// Child adds and returns a generic child span, or nil when the
// receiver is nil, already ended, or the trace's span budget is spent.
func (s *Span) Child(name string) *Span { return s.child(name, "") }

// Stage adds a kind-"stage" child: one timed phase of the pipeline
// (plan lookup, κ estimation, a kernel stage). Aggregated into the
// cacqr_stage_seconds histogram on finish.
func (s *Span) Stage(name string) *Span { return s.child(name, KindStage) }

// Collective adds a kind-"collective" child: one transport collective,
// expected to carry "bytes" and "peers" attrs. Aggregated into the
// per-op collective counters on finish.
func (s *Span) Collective(name string) *Span { return s.child(name, KindCollective) }

// Rank adds a kind-"rank" child: one rank's share of a distributed run,
// expected to carry the transport Counters as attrs. Aggregated into
// the wire-byte totals on finish.
func (s *Span) Rank(name string) *Span { return s.child(name, KindRank) }

func (s *Span) child(name, kind string) *Span {
	if s == nil {
		return nil
	}
	if s.limit != nil && !s.limit.take() {
		return nil
	}
	c := newSpan(name, kind, s.limit)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetInt, SetFloat, SetStr, and SetBool attach one attribute. No-ops on
// nil spans, and free ones: each tests for nil itself so that the
// untraced path does not box v on its way into setAttr.
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.setAttr(key, v)
	}
}

func (s *Span) SetFloat(key string, v float64) {
	if s != nil {
		s.setAttr(key, v)
	}
}

func (s *Span) SetStr(key, v string) {
	if s != nil {
		s.setAttr(key, v)
	}
}

func (s *Span) SetBool(key string, v bool) {
	if s != nil {
		s.setAttr(key, v)
	}
}

func (s *Span) setAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End fixes the span's duration. Idempotent; no-op on nil spans. A span
// never ended keeps running until its trace finishes (Data reports the
// elapsed time so far).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
		if s.region != nil {
			s.region.End()
			s.region = nil
		}
	}
	s.mu.Unlock()
}

// Duration reports the span's duration: final if ended, elapsed so far
// otherwise. 0 on nil spans.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Attr returns one attribute value (nil when absent or the span is nil).
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// SpanData is the JSON-ready snapshot of one span, served by
// /v1/trace/{id}.
type SpanData struct {
	Name     string         `json:"name"`
	Kind     string         `json:"kind,omitempty"`
	Start    int64          `json:"start_unix_nano"`
	Duration int64          `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanData     `json:"children,omitempty"`
}

// Data snapshots the span subtree. Safe to call while the tree is still
// being built; unfinished spans report their elapsed time so far. A nil
// span reports the zero SpanData.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	d := SpanData{
		Name:     s.name,
		Kind:     s.kind,
		Start:    s.start.UnixNano(),
		Duration: int64(s.dur),
	}
	if !s.ended {
		d.Duration = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	if len(children) > 0 {
		d.Children = make([]SpanData, len(children))
		for i, c := range children {
			d.Children[i] = c.Data()
		}
	}
	return d
}

// walk visits the span subtree depth-first. Used by metric aggregation
// on finish; the tree is read-only by then.
func (s *Span) walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	s.mu.Lock()
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		c.walk(fn)
	}
}

// ctxKey carries the active span through context.Context.
type ctxKey struct{}

// ContextWith returns ctx carrying sp as the active span. A nil span
// returns ctx unchanged, so the untraced path allocates nothing.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the active span, or nil — which, by nil-safety,
// turns all downstream instrumentation into no-ops.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// SpanCarrier is the optional interface instrumented layers probe for:
// a streamed source carrying a request's span exposes it through it,
// which is how internal/stream's driver finds where to hang its pass
// spans without any signature changes.
type SpanCarrier interface {
	TraceSpan() *Span
}
