package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named set of inputs plus the op that is timed on it.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count: each client sends its
	// next op only after the previous reply.
	clients int
	// stride: every stride-th op is verified (1 = every op).
	stride int
	// warmups ops run, verified, at the end of set-up and are discarded.
	warmups int
	// shares weighs the request classes of a mixed workload (nil = one
	// class); the instance then says which class op i belongs to.
	shares []int
	// setup generates the inputs from env.seed and starts whatever the
	// op needs (listeners, daemon). The caller closes the instance.
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// op runs op number i and returns what check needs. Only op is
	// timed; it must not verify anything itself.
	op(i int) (any, error)
	// check verifies op i's output, outside the timed interval.
	check(i int, out any) error
	// layers is the traced run: it replays the op's pipeline stage by
	// stage under benchmark-owned spans and fills in the layer metrics
	// this workload owns.
	layers(t *traceRun) error
	// close stops every helper process and listener.
	close()
}

// classed is implemented by instances of mixed workloads.
type classed interface{ class(i int) int }

// phaseSeconds is how long several clients run between two yardstick
// readings: short enough to follow the machine's speed, long enough
// that the idle tail of a phase (one client waiting for the other's
// last reply) stays a few per cent of it.
const phaseSeconds = 0.4

// sample is one timed op.
type sample struct {
	idx   int
	start time.Time
	ms    float64
	err   error // op error, bad status or missed tolerance: a failed op
}

// prepare runs one full set-up: inputs, helpers, verified warm-up ops.
func prepare(e *env, w *workload) (instance, error) {
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	for i := 0; i < w.warmups; i++ {
		out, err := inst.op(i)
		if err == nil {
			err = inst.check(i, out)
		}
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s warm-up op %d: %w", w.name, i, err)
		}
	}
	return inst, nil
}

// measure runs the closed loop for at least `seconds` of timed work —
// or, when ops > 0, for exactly that many ops — and returns every op's
// sample, the time ops_per_s divides by, and (time mode only) the
// yardstick readings taken between the ops.
//
// One client: ops alternate with their verification, only the op is
// timed, and the loop ends once the timed intervals add up to
// `seconds`; that sum is the measured time. The heap is collected
// before each op so that the previous op's verification garbage is not
// charged to the next one, and the yardstick is read just before the
// op starts.
//
// Several clients: each keeps one op in flight, in phases of
// phaseSeconds of wall clock with a yardstick reading (the median of
// three) before each phase, while no request is in flight; the phases
// add up to `seconds`. Outputs are kept, and verification happens after
// the last phase so that it does not compete with the daemon for the
// two cores.
func measure(e *env, w *workload, inst instance, seconds float64, ops int) (samples []sample, wall float64, yard []float64, err error) {
	first := w.warmups
	// more reports whether another op should start, given how many have
	// started and how much measured time has passed.
	more := func(started int, elapsed float64) bool {
		if ops > 0 {
			return started < ops
		}
		return started == 0 || elapsed < seconds
	}
	if w.clients == 1 {
		for i := first; more(len(samples), wall); i++ {
			if err := e.ctx.Err(); err != nil {
				return nil, 0, nil, err
			}
			runtime.GC()
			if ops == 0 {
				yard = append(yard, yardstick())
			}
			start := time.Now()
			out, err := inst.op(i)
			d := time.Since(start).Seconds()
			wall += d
			if err == nil && (i-first)%w.stride == 0 {
				err = inst.check(i, out)
			}
			samples = append(samples, sample{idx: i, start: start, ms: d * 1e3, err: err})
		}
		return samples, wall, yard, nil
	}

	type pending struct {
		sample
		out any
	}
	var next atomic.Int64
	perClient := make([][]pending, w.clients)
	var wg sync.WaitGroup
	// phase keeps every client busy until the phase's time is up (time
	// mode) or the ops are used up, and returns its wall clock. A client
	// takes an op index only if it will run it, so the schedule has no
	// holes; the run's first op starts whatever the clock says.
	phase := func(limit float64) float64 {
		start := time.Now()
		for c := range perClient {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for e.ctx.Err() == nil {
					if ops == 0 && next.Load() > 0 && time.Since(start).Seconds() >= limit {
						return
					}
					k := int(next.Add(1)) - 1
					if ops > 0 && k >= ops {
						return
					}
					t0 := time.Now()
					out, err := inst.op(first + k)
					ms := time.Since(t0).Seconds() * 1e3
					perClient[c] = append(perClient[c], pending{sample{idx: first + k, start: t0, ms: ms, err: err}, out})
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start).Seconds()
	}
	if ops > 0 {
		wall = phase(0)
	}
	for ops == 0 && (wall < seconds || next.Load() == 0) && e.ctx.Err() == nil {
		// The median of three: the daemon may still be collecting the
		// last phase's garbage during the first.
		yard = append(yard, median([]float64{yardstick(), yardstick(), yardstick()}))
		wall += phase(math.Min(seconds-wall, phaseSeconds))
	}
	if err := e.ctx.Err(); err != nil {
		return nil, 0, nil, err
	}

	var all []pending
	for _, p := range perClient {
		all = append(all, p...)
	}
	var cursor atomic.Int64
	for v := 0; v < runtime.GOMAXPROCS(0); v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(cursor.Add(1)) - 1; k < len(all); k = int(cursor.Add(1)) - 1 {
				if p := &all[k]; p.err == nil && (p.idx-first)%w.stride == 0 {
					p.err = inst.check(p.idx, p.out)
				}
				all[k].out = nil
			}
		}()
	}
	wg.Wait()
	samples = make([]sample, len(all))
	for k, p := range all {
		samples[k] = p.sample
	}
	return samples, wall, yard, nil
}

// goodMs lists the latencies of the ops that succeeded and verified.
func goodMs(samples []sample) []float64 {
	var ms []float64
	for _, s := range samples {
		if s.err == nil {
			ms = append(ms, s.ms)
		}
	}
	return ms
}

// classWeighted applies stat to the good ops of each class and weighs
// the results by the class's share of the mix (a class with no good op
// is left out), so that how many slow requests a run happened to draw
// does not move the number.
func classWeighted(w *workload, inst instance, samples []sample, stat func([]float64) float64) float64 {
	shares := w.shares
	if shares == nil {
		shares = []int{1}
	}
	ms := make([][]float64, len(shares))
	for _, s := range samples {
		c := 0
		if ci, ok := inst.(classed); ok {
			c = ci.class(s.idx)
		}
		if s.err == nil {
			ms[c] = append(ms[c], s.ms)
		}
	}
	var sum, weight float64
	for c, v := range ms {
		if len(v) > 0 {
			sum += float64(shares[c]) * stat(v)
			weight += float64(shares[c])
		}
	}
	if weight <= 0 {
		return 0
	}
	return sum / weight
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	FirstErr  string    `json:"first_error,omitempty"`
	Metrics   metricSet `json:"metrics"`
	// Observed holds what an end-to-end run reports without a bound.
	Observed metricSet `json:"observed,omitempty"`
	// Tail is the highest percentile the sample supports (at least ten
	// samples beyond it), quoted beside the median.
	TailPct float64 `json:"tail_pct"`
	TailMs  float64 `json:"tail_ms"`
}

// newResult counts a run's ops and failures and returns, sorted, the
// latencies of the good ones for the caller's percentiles.
func newResult(w *workload, samples []sample, traced bool, m metricSet) (*runResult, []float64) {
	sorted := sortedCopy(goodMs(samples))
	res := &runResult{Workload: w.name, Traced: traced, Attempted: len(samples), Failed: len(samples) - len(sorted), Metrics: m}
	res.Correct = res.Failed == 0
	for _, s := range samples {
		if s.err != nil {
			res.FirstErr = fmt.Sprintf("op %d: %v", s.idx, s.err)
			break
		}
	}
	res.TailPct = tailPercentile(len(sorted))
	res.TailMs = percentile(sorted, res.TailPct)
	return res, sorted
}

// setupReps is how many times an end-to-end run sets up; setup_s is the
// median, which keeps one slow process start from deciding it.
const setupReps = 3

// yardstickAround is how many yardstick readings are taken before and
// again after each set-up.
const yardstickAround = 2

// atYardstickSpeed rescales a time measured while the yardstick read
// `yard` (mean, ms) to the speed at which it reads yardstickQuietMs.
func atYardstickSpeed(t float64, yard []float64) float64 {
	return t * yardstickQuietMs / mean(yard)
}

// runEndToEnd measures the workload with tracing off.
func runEndToEnd(e *env, w *workload, seconds float64) (*runResult, error) {
	reps := setupReps
	if e.quick {
		reps = 1
	}
	var inst instance
	var setupS, setupRaw []float64
	for k := 0; k < reps; k++ {
		if inst != nil {
			inst.close()
		}
		var yard []float64
		for i := 0; i < yardstickAround; i++ {
			yard = append(yard, yardstick())
		}
		start := time.Now()
		var err error
		if inst, err = prepare(e, w); err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		for i := 0; i < yardstickAround; i++ {
			yard = append(yard, yardstick())
		}
		setupRaw = append(setupRaw, took)
		setupS = append(setupS, atYardstickSpeed(took, yard))
	}
	defer inst.close()

	samples, wall, yard, err := measure(e, w, inst, seconds, 0)
	if err != nil {
		return nil, err
	}
	res, sorted := newResult(w, samples, false, metricSet{})
	res.Metrics.set(endToEnd, "op_norm_ms", atYardstickSpeed(classWeighted(w, inst, samples, mean), yard), len(sorted))
	res.Metrics.set(endToEnd, "setup_s", median(setupS), len(setupS))
	res.Observed = metricSet{}
	res.Observed.set(observed, "op_p50_ms", percentile(sorted, 50), len(sorted))
	res.Observed.set(observed, "op_best_ms", classWeighted(w, inst, samples, minOf), len(sorted))
	res.Observed.set(observed, "ops_per_s", float64(len(sorted))/wall, len(sorted))
	res.Observed.set(observed, "yardstick_ms", mean(yard), len(yard))
	res.Observed.set(observed, "setup_raw_s", median(setupRaw), len(setupRaw))
	return res, nil
}

// traceRun is the state of one traced run: the span recorder, the time
// budget, the root-op samples and the layer metrics gathered so far.
type traceRun struct {
	e       *env
	w       *workload
	inst    instance
	rec     *recorder
	budget  float64 // seconds for the whole traced run
	start   time.Time
	nextOp  int
	samples []sample
	opWall  float64 // time the root ops took: their sum, or the phase's wall clock with several clients
	m       metricSet
}

// set records a layer metric.
func (t *traceRun) set(name string, v float64, n int) { t.m.set(perLayer, name, v, n) }

// setMed records the median duration of the spans called span.
func (t *traceRun) setMed(name, span string) float64 {
	d := t.rec.durations(span)
	v := median(d)
	t.set(name, v, len(d))
	return v
}

// each calls f for rep = 0, 1, … until the run's budget is spent,
// at least min times (once in quick mode). The probes inside one rep
// are interleaved on purpose: a drift of the machine then moves all of
// them together, and their differences stay meaningful.
func (t *traceRun) each(min int, f func(rep int) error) error {
	if t.e.quick {
		min = 1
	}
	for rep := 0; rep < min || (!t.e.quick && time.Since(t.start).Seconds() < t.budget); rep++ {
		if err := t.e.ctx.Err(); err != nil {
			return err
		}
		if err := f(rep); err != nil {
			return err
		}
	}
	return nil
}

// rootOp runs and times one op of the workload under a "root.op" span,
// then verifies it.
func (t *traceRun) rootOp() {
	i := t.nextOp
	t.nextOp++
	runtime.GC()
	start := time.Now()
	id := t.rec.begin("root.op", 0)
	out, err := t.inst.op(i)
	ms := t.rec.end(id) * 1e3
	if err == nil {
		err = t.inst.check(i, out)
	}
	t.samples = append(t.samples, sample{idx: i, start: start, ms: ms, err: err})
	t.opWall += ms / 1e3
}

// opP50 is the traced run's own median op time in seconds: the number
// the stage times are reconciled against.
func (t *traceRun) opP50() float64 { return median(goodMs(t.samples)) / 1e3 }

// runTraced replays the workload under benchmark-owned spans and
// returns every per-layer metric; the ones other workloads own read 0.
func runTraced(e *env, w *workload, seconds float64) (*runResult, error) {
	inst, err := prepare(e, w)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	t := &traceRun{e: e, w: w, inst: inst, rec: newRecorder(w.name), budget: seconds, start: time.Now(), nextOp: w.warmups, m: metricSet{}}
	if err := inst.layers(t); err != nil {
		return nil, fmt.Errorf("%s traced run: %w", w.name, err)
	}
	res, sorted := newResult(w, t.samples, true, t.m)
	t.set("root.op_p50_ms", percentile(sorted, 50), len(sorted))
	t.set("root.ops_per_s", float64(len(sorted))/t.opWall, len(sorted))
	t.set("root.op_p95_ms", percentile(sorted, 95), len(sorted))
	t.set("root.fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	t.set("bench.build_s", e.buildS, 1)
	for _, d := range perLayer {
		if _, ok := t.m[d.Name]; !ok {
			if d.Owner == w.name || (d.Owner == "" && d.Name != "obs.trace_overhead_pct") {
				return nil, fmt.Errorf("%s traced run did not report %s", w.name, d.Name)
			}
			t.set(d.Name, 0, 0)
		}
	}
	if err := t.rec.write(filepath.Join(e.outDir(), "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}
