package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer's
// exported function. The program under test is not instrumented: spans
// are recorded here, from outside, and kept in memory until the run
// ends.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"` // seconds since the recorder's epoch
	End      float64 `json:"end_s"`
}

// recorder collects the spans of one traced run. It is safe for the
// concurrent clients of serve-http and for rank goroutines.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now, End: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// add records an interval that was timed elsewhere.
func (r *recorder) add(name string, parent int, start time.Time, seconds float64) {
	at := start.Sub(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, Start: at, End: at + seconds})
}

// do records f as one span.
func (r *recorder) do(name string, parent int, f func()) {
	id := r.begin(name, parent)
	f()
	r.end(id)
}

// timed records a fallible f as one span and passes its error through.
func (r *recorder) timed(name string, parent int, f func() error) error {
	id := r.begin(name, parent)
	err := f()
	r.end(id)
	return err
}

// durations lists the lengths of every finished span called name, in
// recording order.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// med is the median busy seconds per call of the spans called name.
func (r *recorder) med(name string) float64 { return median(r.durations(name)) }

// selfTimes maps each span ID to its duration minus the part of that
// interval its direct children cover. Children may overlap each other
// (two clients, sixteen ranks), so the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string  `json:"workload"`
	Spans    []span  `json:"spans"`
	Self     []selfT `json:"self_s"`
}

type selfT struct {
	ID   int     `json:"id"`
	Self float64 `json:"self_s"`
}

// write dumps the spans, with their self times, as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	tf := traceFile{Workload: r.workload, Spans: spans}
	self := selfTimes(spans)
	for _, s := range spans {
		tf.Self = append(tf.Self, selfT{ID: s.ID, Self: self[s.ID]})
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace of %s: %w", r.workload, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace of %s: %w", r.workload, err)
	}
	return nil
}
