package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 0 {
			t.Errorf("p%g of 10..100 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); math.Abs(got) > 0 {
		t.Errorf("empty sample: %g", got)
	}
	if got := median([]float64{3, 1, 2}); math.Abs(got-2) > 0 {
		t.Errorf("median of unsorted 3,1,2 = %g", got)
	}
}

// The tail that may be quoted is the highest percentile that still has
// ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {80, 75}, {100, 90}, {199, 90}, {200, 95}, {600, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); math.Abs(got-tc.want) > 0 {
			t.Errorf("n=%d: p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

// mixInst says which class an op belongs to: op i is of class i % 3.
type mixInst struct{ instance }

func (mixInst) class(i int) int { return i % 3 }

func TestClassWeightedAndYardstickScale(t *testing.T) {
	w := &workload{shares: []int{7, 2, 1}}
	// Class 0: 10 and 30 ms; class 1: 100 ms and a failed op that must
	// not count; class 2 drew no op at all and is left out of the weights.
	samples := []sample{{idx: 0, ms: 10}, {idx: 3, ms: 30}, {idx: 1, ms: 100}, {idx: 4, ms: 900, err: os.ErrInvalid}}
	if got, want := classWeighted(w, mixInst{}, samples, mean), (7*20.0+2*100)/9; math.Abs(got-want) > 1e-12 {
		t.Errorf("class-weighted mean = %g, want %g", got, want)
	}
	if got, want := classWeighted(w, mixInst{}, samples, minOf), (7*10.0+2*100)/9; math.Abs(got-want) > 1e-12 {
		t.Errorf("class-weighted fastest = %g, want %g", got, want)
	}
	if got := classWeighted(&workload{}, nil, samples[:2], mean); math.Abs(got-20) > 1e-12 {
		t.Errorf("one class: mean = %g, want 20", got)
	}
	// A machine running the yardstick at twice its quiet reading is
	// taken to run everything else at half speed too.
	if got := atYardstickSpeed(3, []float64{2 * yardstickQuietMs, 2 * yardstickQuietMs}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("3 s at half speed = %g s at yardstick speed, want 1.5", got)
	}
	if y := yardstick(); !(y > 0) {
		t.Errorf("yardstick read %g ms", y)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},  // overlaps 2: union is [1, 6]
		{ID: 4, Parent: 1, Start: 8, End: 12}, // runs past the parent: clipped at 10
		{ID: 5, Parent: 2, Start: 1, End: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 10 - 5 - 2, 2: 2, 3: 3, 4: 4, 5: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("span %d: self %g, want %g", id, self[id], want)
		}
	}
}

func TestRecorderNestsAndAggregates(t *testing.T) {
	r := newRecorder("w")
	parent := r.begin("outer", 0)
	r.do("inner", parent, func() {})
	r.do("inner", parent, func() {})
	r.end(parent)
	if n := len(r.durations("inner")); n != 2 {
		t.Fatalf("%d inner spans, want 2", n)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 3 || tf.Spans[1].Parent != parent || tf.Spans[1].Workload != "w" || len(tf.Self) != 3 {
		t.Fatalf("trace file lost structure: %+v", tf)
	}
}

// Same seed, same bytes; and every block of ten carries the stated mix.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	raw := func(s []slot) []byte {
		var b bytes.Buffer
		for _, x := range s {
			b.WriteByte(x.class)
			b.WriteByte(x.item)
		}
		return b.Bytes()
	}
	a, b := buildSchedule(7, 1000), buildSchedule(7, 1000)
	if !bytes.Equal(raw(a), raw(b)) {
		t.Fatal("same seed gave two schedules")
	}
	if bytes.Equal(raw(a), raw(buildSchedule(8, 1000))) {
		t.Fatal("different seeds gave one schedule")
	}
	for blk := 0; blk < len(a); blk += 10 {
		var count [3]int
		for _, s := range a[blk : blk+10] {
			count[s.class]++
			if int(s.item) >= classes[s.class].pool {
				t.Fatalf("slot %+v outside its class pool", s)
			}
		}
		if count != [3]int{7, 2, 1} {
			t.Fatalf("block at %d has mix %v, want 7/2/1", blk, count)
		}
	}
}

// BENCHMARK.json is what the driver reads; the registry is what the
// program reports. They must say the same thing.
func TestManifestMatchesRegistry(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
		Why                string
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v over paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, program %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the registry", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: manifest %+v, registry %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && math.Abs(*g.Bound-d.Bound) > 0) {
				t.Errorf("%s %s: bound mismatch", kind, d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}
}

func sampleSuite() *suite {
	e2e := metricSet{}
	e2e.set(endToEnd, "op_norm_ms", 100, 80)
	e2e.set(endToEnd, "setup_s", 0.5, 3)
	layers := metricSet{}
	layers.set(perLayer, "simmpi.msgs_per_proc", 218, 0)
	layers.set(perLayer, "core.cacqr2_s", 0.07, 5)
	return &suite{
		Header: header{Seed: 3, Seconds: 10, Nproc: 2, GOMAXPROCS: 2, GoVersion: "go", CPUModel: "cpu", Commit: "c"},
		Workloads: []workloadResult{{
			Name: wGridSim, Why: "why", Loop: "closed", Clients: 1,
			EndToEnd: &runResult{Workload: wGridSim, Correct: true, Attempted: 80, Metrics: e2e, TailPct: 75, TailMs: 120},
			Layers:   &runResult{Workload: wGridSim, Traced: true, Correct: true, Attempted: 5, Metrics: layers, TailPct: 50, TailMs: 100},
		}},
	}
}

func TestResultsRoundTrip(t *testing.T) {
	s := sampleSuite()
	s.SelfCheck = compare(s, s)
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Errorf("results must end with \"claim\": null, got …%s", data[len(data)-40:])
	}
	var back suite
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, &back) {
		t.Errorf("round trip changed the results:\n%+v\n%+v", s, &back)
	}
}

func TestCompareFlagsDriftAndCountChanges(t *testing.T) {
	a, b := sampleSuite(), sampleSuite()
	for _, s := range compare(a, b) {
		if !s.OK {
			t.Errorf("identical runs disagree on %s", s.Metric)
		}
	}
	slow := b.Workloads[0].EndToEnd.Metrics["op_norm_ms"]
	slow.Value *= 1 + endToEnd[0].Bound + 0.01
	b.Workloads[0].EndToEnd.Metrics["op_norm_ms"] = slow
	cnt := b.Workloads[0].Layers.Metrics["simmpi.msgs_per_proc"]
	cnt.Value++
	b.Workloads[0].Layers.Metrics["simmpi.msgs_per_proc"] = cnt
	bad := map[string]bool{}
	for _, s := range compare(a, b) {
		if !s.OK {
			bad[s.Metric] = true
		}
	}
	if !reflect.DeepEqual(bad, map[string]bool{"op_norm_ms": true, "simmpi.msgs_per_proc": true}) {
		t.Errorf("flagged %v", bad)
	}
}

// The smoke pass: all six workloads, both modes, a few ops each. Every
// op must verify, every owned layer metric must be present, the cost
// model must match, and a second traced run on the same seed must
// repeat every counted metric bit for bit. Under -short the cacqrd
// build, and with it serve-http, is skipped. Under the race detector,
// which makes the kernels ten times slower, only the two workloads
// whose benchmark-side code is concurrent run (worker pool, two
// clients), once.
func TestQuickSmoke(t *testing.T) {
	e, err := newEnv(context.Background(), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var ws []*workload
	for _, w := range workloads {
		if (testing.Short() && w == serveHTTP) || (raceDetector && w != serveHTTP && w != gridTCP) {
			continue
		}
		ws = append(ws, w)
	}
	s, err := runSuite(e, 0.2, ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.finish(e, nil); err != nil {
		t.Fatal(err)
	}
	want := len(ws)
	if len(s.Workloads) != want {
		t.Fatalf("%d workloads ran, want %d", len(s.Workloads), want)
	}
	for _, w := range s.Workloads {
		for _, r := range []*runResult{w.EndToEnd, w.Layers} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: %d/%d failed: %s", w.Name, r.Traced, r.Failed, r.Attempted, r.FirstErr)
			}
		}
		for _, d := range endToEnd {
			if m := w.EndToEnd.Metrics[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s %s = %+v", w.Name, d.Name, m)
			}
		}
		for _, d := range perLayer {
			m, ok := w.Layers.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: layer metric %s missing", w.Name, d.Name)
			}
			if d.Owner == w.Name && d.Kind == timed && d.Unit == "s" && !strings.Contains(d.Name, "self") &&
				!strings.Contains(d.Name, "overhead") && !strings.Contains(d.Name, "copy") && !strings.Contains(d.Name, "over_sim") && !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want a positive time", w.Name, d.Name, m.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(e.outDir(), "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	var back suite
	data, err := os.ReadFile(filepath.Join(e.outDir(), "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil || len(back.Workloads) != want || back.Claim != nil {
		t.Fatalf("results.json does not read back: %v", err)
	}

	if raceDetector {
		return
	}
	// Same seed again: counts must not move.
	for _, w := range s.Workloads {
		again, err := runTraced(e, findWorkload(w.Name), 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if d.Kind != counted {
				continue
			}
			x, y := w.Layers.Metrics[d.Name].Value, again.Metrics[d.Name].Value
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Errorf("%s: %s was %v, then %v on the same seed", w.Name, d.Name, x, y)
			}
			if d.Name == "costmodel.count_mismatch" && math.Float64bits(x) != 0 {
				t.Errorf("measured α-β-γ differ from the cost model in %v fields", x)
			}
		}
	}
}
