package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime/trace"
	"sync"
	"sync/atomic"
)

// Defaults for TracerOptions zero values.
const (
	// DefaultRetain is how many finished traces the ring keeps for
	// /v1/trace/{id}.
	DefaultRetain = 64
	// DefaultMaxSpans caps the spans of one trace.
	DefaultMaxSpans = 4096
)

// TracerOptions configure NewTracer. The zero value samples every
// request, retains DefaultRetain finished traces, caps each at
// DefaultMaxSpans spans, and aggregates into a private Registry.
type TracerOptions struct {
	// SampleEvery traces 1 in N requests (0 or 1 = every request;
	// negative = none, though metrics derived outside traces still
	// flow). Untraced requests return a nil Trace from Start — free by
	// nil-safety.
	SampleEvery int
	// Retain bounds the finished-trace ring (0 = DefaultRetain).
	Retain int
	// MaxSpans bounds each trace's span count (0 = DefaultMaxSpans).
	MaxSpans int
	// Metrics receives the aggregated series (nil = a fresh Registry,
	// reachable via Tracer.Metrics).
	Metrics *Registry
}

// Tracer samples requests into bounded span trees and aggregates
// finished trees into its metrics Registry. All methods are nil-safe:
// a nil *Tracer is the disabled tracer, and every operation on it (and
// on the nil Traces it hands out) is a no-op.
type Tracer struct {
	sampleEvery int
	maxSpans    int
	metrics     *Registry

	seq      atomic.Int64 // sampling counter
	idSeq    atomic.Int64
	idPrefix string

	mu     sync.Mutex
	retain int
	ring   []*Trace // oldest first
	byID   map[string]*Trace
}

// Trace is one sampled request: a root span plus the runtime/trace task
// covering it. Nil-safe throughout.
type Trace struct {
	id     string
	root   *Span
	limit  *spanLimit
	task   *trace.Task
	tracer *Tracer
}

// NewTracer builds a Tracer.
func NewTracer(o TracerOptions) *Tracer {
	if o.Retain <= 0 {
		o.Retain = DefaultRetain
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = DefaultMaxSpans
	}
	if o.Metrics == nil {
		o.Metrics = NewRegistry()
	}
	var pfx [4]byte
	rand.Read(pfx[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	return &Tracer{
		sampleEvery: o.SampleEvery,
		maxSpans:    o.MaxSpans,
		metrics:     o.Metrics,
		idPrefix:    hex.EncodeToString(pfx[:]),
		retain:      o.Retain,
		byID:        make(map[string]*Trace, o.Retain),
	}
}

// Metrics returns the tracer's registry (nil for a nil tracer — itself
// a valid, no-op Registry receiver).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Start samples one request. When sampled it returns the new Trace and
// a ctx carrying the root span (so downstream layers find it with
// FromContext); otherwise — nil tracer, negative sampling, or this
// request not being the 1-in-N — it returns (nil, ctx) unchanged.
func (t *Tracer) Start(ctx context.Context, name string) (*Trace, context.Context) {
	if t == nil || t.sampleEvery < 0 {
		return nil, ctx
	}
	if n := t.seq.Add(1); t.sampleEvery > 1 && (n-1)%int64(t.sampleEvery) != 0 {
		return nil, ctx
	}
	tr := &Trace{
		id:     fmt.Sprintf("%s-%06x", t.idPrefix, t.idSeq.Add(1)),
		limit:  &spanLimit{left: t.maxSpans},
		tracer: t,
	}
	if trace.IsEnabled() {
		var tctx context.Context
		tctx, tr.task = trace.NewTask(ctx, name)
		ctx = tctx
	}
	tr.limit.take() // the root span counts against the budget
	tr.root = newSpan(name, "", tr.limit)
	tr.root.SetStr("trace_id", tr.id)
	return tr, ContextWith(ctx, tr.root)
}

// ID returns the trace's identifier ("" for nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Root returns the trace's root span (nil for nil).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Finish ends the root span and runtime/trace task, folds the tree into
// the tracer's metrics, and retains the trace for /v1/trace/{id}.
// No-op on nil.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.root.End()
	if tr.task != nil {
		tr.task.End()
	}
	t := tr.tracer
	t.metrics.aggregate(tr.root)
	t.mu.Lock()
	if len(t.ring) >= t.retain {
		evict := t.ring[0]
		t.ring = t.ring[1:]
		delete(t.byID, evict.id)
	}
	t.ring = append(t.ring, tr)
	t.byID[tr.id] = tr
	t.mu.Unlock()
}

// TraceData is the JSON-ready form of one retained trace.
type TraceData struct {
	ID           string   `json:"id"`
	Root         SpanData `json:"root"`
	DroppedSpans int64    `json:"dropped_spans,omitempty"`
}

// Get returns a retained trace by ID.
func (t *Tracer) Get(id string) (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	t.mu.Lock()
	tr, ok := t.byID[id]
	t.mu.Unlock()
	if !ok {
		return TraceData{}, false
	}
	return TraceData{ID: tr.id, Root: tr.root.Data(), DroppedSpans: tr.limit.droppedCount()}, true
}

// aggregate folds one finished span tree into the registry's series:
// stage spans into per-stage latency summaries, collective spans into
// per-op count/byte counters, rank spans into wire-byte totals, and the
// root into the end-to-end latency summary.
func (r *Registry) aggregate(root *Span) {
	if r == nil || root == nil {
		return
	}
	r.Histogram("cacqr_request_trace_seconds",
		"End-to-end latency of traced requests.").ObserveSeconds(root.Duration().Seconds())
	root.walk(func(s *Span) {
		switch s.kind {
		case KindStage:
			r.Histogram("cacqr_stage_seconds",
				"Wall time per pipeline stage of traced requests.",
				L("stage", s.name)).ObserveSeconds(s.Duration().Seconds())
		case KindCollective:
			r.Counter("cacqr_collectives_total",
				"Collective operations observed by traced requests.",
				L("op", s.name)).Add(1)
			if b, ok := s.Attr("bytes").(int64); ok {
				r.Counter("cacqr_collective_payload_bytes_total",
					"Payload bytes through collectives of traced requests.",
					L("op", s.name)).Add(b)
			}
		case KindRank:
			if b, ok := s.Attr("bytes").(int64); ok {
				r.Counter("cacqr_wire_bytes_total",
					"Wire bytes attributed to ranks of traced requests.").Add(b)
			}
		}
	})
}
