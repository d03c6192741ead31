package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"

	cacqr "cacqr"
	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
	"cacqr/internal/serve"
)

// serve-http: two closed-loop clients against a cacqrd subprocess.
const (
	httpClients = 2
	httpProcs   = 8 // cacqrd -procs: ranks a plan may use
	illCond     = 1e10
)

// reqClass is one kind of request in the mix.
type reqClass struct {
	name  string
	path  string
	m, n  int
	share int // requests per block of ten
	pool  int // distinct matrices generated per seed
}

// The mix: small sets the median, solve and ill set the tail, so the
// two move independently. small and ill return factors (encode-heavy),
// solve returns x only (decode-heavy).
var classes = []reqClass{
	{name: "small", path: "/v1/factorize", m: 512, n: 32, share: 7, pool: 8},
	{name: "solve", path: "/v1/solve", m: 2048, n: 64, share: 2, pool: 4},
	{name: "ill", path: "/v1/factorize", m: 1024, n: 128, share: 1, pool: 2},
}

func classShares() []int {
	shares := make([]int, len(classes))
	for c, cl := range classes {
		shares[c] = cl.share
	}
	return shares
}

const (
	clsSmall = iota
	clsSolve
	clsIll
)

// slot is one entry of the request schedule.
type slot struct{ class, item uint8 }

// scheduleLen is how many slots are generated; the loop wraps around.
const scheduleLen = 4000

// buildSchedule derives the request order from the seed alone: blocks
// of ten, each a seeded shuffle of seven small, two solve and one ill,
// so that any window of the run sees the stated mix. Within a class the
// pool's matrices are used in turn.
func buildSchedule(seed int64, n int) []slot {
	rng := rand.New(rand.NewSource(seed))
	var block []uint8
	for c, cl := range classes {
		for k := 0; k < cl.share; k++ {
			block = append(block, uint8(c))
		}
	}
	used := make([]int, len(classes))
	out := make([]slot, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			out = append(out, slot{class: c, item: uint8(used[c] % classes[c].pool)})
			used[c]++
		}
	}
	return out[:n]
}

// wireRequest and wireResponse are the fields of cacqrd's JSON the
// benchmark sends and reads.
type wireRequest struct {
	M           int       `json:"m"`
	N           int       `json:"n"`
	Data        []float64 `json:"data"`
	B           []float64 `json:"b,omitempty"`
	WantFactors bool      `json:"want_factors,omitempty"`
}

type wireResponse struct {
	X []float64 `json:"x"`
	Q []float64 `json:"q"`
	R []float64 `json:"r"`
}

// httpInput is one generated request: matrix, encoded body, reference.
type httpInput struct {
	a    *cacqr.Dense
	b    []float64 // solve only
	xRef []float64 // solve only: Householder least-squares reference
	body []byte
}

type serveHTTPInst struct {
	e        *env
	inputs   [][]httpInput // [class][item]
	schedule []slot
	client   *http.Client
	d        *daemon

	reqBytes, respBytes atomic.Int64
	http4xx, http5xx    atomic.Int64
}

var serveHTTP = &workload{
	name:    wServeHTTP,
	why:     "request in, Q and R out through cacqrd: JSON decode and encode, condition estimate, plan cache, rank gate and copies, the serving costs the paper never had",
	clients: httpClients,
	stride:  1,
	warmups: 10, // one block: every class, so all three plan keys are cached
	shares:  classShares(),
	setup: func(e *env) (instance, error) {
		s, err := newServeHTTP(e)
		if err != nil {
			return nil, err
		}
		if err := e.buildDaemon(); err != nil {
			return nil, err
		}
		if s.d, err = e.startDaemon(s.client, "-trace-sample-rate", "0"); err != nil {
			return nil, err
		}
		return s, nil
	},
}

// newServeHTTP generates the request pool and schedule; no daemon yet.
func newServeHTTP(e *env) (*serveHTTPInst, error) {
	s := &serveHTTPInst{
		e:        e,
		schedule: buildSchedule(e.seed, scheduleLen),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: httpClients,
		}},
	}
	for c, cl := range classes {
		var ins []httpInput
		for k := 0; k < cl.pool; k++ {
			seed := e.seed*1000 + int64(c*100+k)
			in := httpInput{}
			req := wireRequest{M: cl.m, N: cl.n}
			switch c {
			case clsIll:
				in.a = cacqr.RandomWithCond(cl.m, cl.n, illCond, seed)
				req.WantFactors = true
			case clsSolve:
				in.a = cacqr.RandomMatrix(cl.m, cl.n, seed)
				in.b = cacqr.RandomMatrix(cl.m, 1, seed+50).Data
				var err error
				if in.xRef, err = householderSolve(in.a, in.b); err != nil {
					return nil, err
				}
				req.B = in.b
			default:
				in.a = cacqr.RandomMatrix(cl.m, cl.n, seed)
				req.WantFactors = true
			}
			req.Data = in.a.Data
			var err error
			if in.body, err = json.Marshal(req); err != nil {
				return nil, fmt.Errorf("encoding %s request: %w", cl.name, err)
			}
			ins = append(ins, in)
		}
		s.inputs = append(s.inputs, ins)
	}
	return s, nil
}

// householderSolve is the reference least-squares solution: Householder
// QR, then R·x = Qᵀb by back-substitution.
func householderSolve(a *cacqr.Dense, b []float64) ([]float64, error) {
	q, r, err := cacqr.HouseholderQR(a)
	if err != nil {
		return nil, fmt.Errorf("Householder reference: %w", err)
	}
	x := lin.NewMatrix(a.Cols, 1)
	lin.Gemm(true, false, 1, asLin(q), lin.FromSlice(len(b), 1, b), 0, x)
	lin.Trsm(lin.Left, lin.Upper, false, asLin(r), x)
	return x.Data, nil
}

func (s *serveHTTPInst) slot(i int) (slot, *httpInput) {
	sl := s.schedule[i%len(s.schedule)]
	return sl, &s.inputs[sl.class][sl.item]
}

func (s *serveHTTPInst) class(i int) int { return int(s.schedule[i%len(s.schedule)].class) }

// httpOut is a reply as read off the wire; decoding waits for check.
type httpOut struct {
	status int
	body   []byte
}

// op sends request i and reads the whole reply: send → body fully read
// is the timed interval.
func (s *serveHTTPInst) op(i int) (any, error) {
	sl, in := s.slot(i)
	req, err := http.NewRequestWithContext(s.e.ctx, http.MethodPost, s.d.base+classes[sl.class].path, bytes.NewReader(in.body))
	if err != nil {
		return httpOut{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return httpOut{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpOut{}, fmt.Errorf("reading reply: %w", err)
	}
	s.reqBytes.Add(int64(len(in.body)))
	s.respBytes.Add(int64(len(body)))
	switch {
	case resp.StatusCode >= 500:
		s.http5xx.Add(1)
	case resp.StatusCode >= 400:
		s.http4xx.Add(1)
	}
	return httpOut{status: resp.StatusCode, body: body}, nil
}

func (s *serveHTTPInst) check(i int, out any) error {
	o := out.(httpOut)
	sl, in := s.slot(i)
	cl := classes[sl.class]
	if o.status != http.StatusOK {
		return fmt.Errorf("%s answered %d: %.200s", cl.name, o.status, o.body)
	}
	var resp wireResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decoding %s reply: %w", cl.name, err)
	}
	if sl.class == clsSolve {
		return checkSolution(resp.X, in.xRef)
	}
	q, err := cacqr.FromData(cl.m, cl.n, resp.Q)
	if err != nil {
		return err
	}
	r, err := cacqr.FromData(cl.n, cl.n, resp.R)
	if err != nil {
		return err
	}
	_, _, err = checkDenseQR(in.a, q, r, 1)
	return err
}

func (s *serveHTTPInst) close() {
	if s.d != nil {
		s.d.stop()
	}
	s.client.CloseIdleConnections()
}

// hitRate reads /stats: the share of requests whose plan came from the
// cache or from an in-flight same-key lookup.
func (s *serveHTTPInst) hitRate() (float64, error) {
	resp, err := s.client.Get(s.d.base + "/stats")
	if err != nil {
		return 0, fmt.Errorf("reading /stats: %w", err)
	}
	defer resp.Body.Close()
	var st struct{ Requests, Hits, Batched float64 }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding /stats: %w", err)
	}
	return (st.Hits + st.Batched) / st.Requests, nil
}

// resetCounters zeroes the byte and status counters before a phase.
func (s *serveHTTPInst) resetCounters() {
	s.reqBytes.Store(0)
	s.respBytes.Store(0)
	s.http4xx.Store(0)
	s.http5xx.Store(0)
}

// classMix runs `ops` scheduled requests against the current daemon and
// returns the samples and each class's median latency in seconds.
func (s *serveHTTPInst) classMix(t *traceRun, prefix string, ops int) ([]sample, float64, [3]float64, error) {
	samples, wall, _, err := measure(t.e, t.w, s, 0, ops)
	if err != nil {
		return nil, 0, [3]float64{}, err
	}
	var p50 [3]float64
	for _, sm := range samples {
		sl, _ := s.slot(sm.idx)
		t.rec.add(prefix+classes[sl.class].name, 0, sm.start, sm.ms/1e3)
	}
	for c, cl := range classes {
		p50[c] = t.rec.med(prefix + cl.name)
	}
	return samples, wall, p50, nil
}

// mixSeconds is the time one block of ten takes when every request
// costs its class median: the number the tracer's price is taken on.
func mixSeconds(p50 [3]float64) float64 {
	var sum float64
	for c, cl := range classes {
		sum += float64(cl.share) * p50[c]
	}
	return sum
}

func (s *serveHTTPInst) layers(t *traceRun) error {
	// Client side, a fixed number of whole blocks so that the byte
	// counts repeat exactly: first against the untraced daemon, then
	// the same requests against a daemon that traces every one.
	ops := 100
	if t.e.quick {
		ops = 10
	}
	s.resetCounters()
	samples, wall, off, err := s.classMix(t, "cacqrd.", ops)
	if err != nil {
		return err
	}
	t.samples, t.opWall = samples, wall
	for c, cl := range classes {
		t.set("cacqrd."+cl.name+"_p50_ms", off[c]*1e3, len(t.rec.durations("cacqrd."+cl.name)))
	}
	t.set("cacqrd.req_bytes_per_op", float64(s.reqBytes.Load())/float64(ops), ops)
	t.set("cacqrd.resp_bytes_per_op", float64(s.respBytes.Load())/float64(ops), ops)
	t.set("cacqrd.http_4xx", float64(s.http4xx.Load()), ops)
	t.set("cacqrd.http_5xx", float64(s.http5xx.Load()), ops)
	rate, err := s.hitRate()
	if err != nil {
		return err
	}
	t.set("serve.hit_rate", rate, ops+t.w.warmups)

	untraced := s.d
	traced, err := t.e.startDaemon(s.client, "-trace-sample-rate", "1")
	if err != nil {
		return err
	}
	s.d = traced
	on, err := func() ([3]float64, error) {
		defer func() { traced.stop(); s.d = untraced }()
		for i := 0; i < t.w.warmups; i++ {
			if _, err := s.op(i); err != nil {
				return [3]float64{}, fmt.Errorf("warming the tracing daemon: %w", err)
			}
		}
		_, _, on, err := s.classMix(t, "cacqrd_traced.", ops)
		return on, err
	}()
	if err != nil {
		return err
	}
	t.set("obs.trace_overhead_pct", 100*(mixSeconds(on)-mixSeconds(off))/mixSeconds(off), ops)

	// The same inputs through the library, layer by layer.
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: httpProcs})
	if err != nil {
		return err
	}
	defer srv.Close()
	inner := serve.New(serve.Config{})
	defer inner.Close()
	hits := 100_000
	if t.e.quick {
		hits = 1000
	}
	err = t.each(5, func(int) error {
		for c, cl := range classes {
			in := &s.inputs[c][0]
			runtime.GC()
			var res *cacqr.SubmitResult
			err := t.rec.timed("root.submit_"+cl.name, 0, func() (err error) {
				res, err = srv.Submit(cacqr.SubmitRequest{A: in.a, B: in.b})
				return err
			})
			if err != nil {
				return err
			}
			runtime.GC()
			err = t.rec.timed("root.exec_"+cl.name, 0, func() error {
				_, err := cacqr.FactorizePlan(in.a, *res.Plan, cacqr.Options{})
				return err
			})
			if err != nil {
				return err
			}
			t.rec.do("lin.condest_"+cl.name, 0, func() { lin.EstimateCond(asLin(in.a), condEstIters) })
			preq := plan.Request{M: cl.m, N: cl.n, Procs: httpProcs, Machine: costmodel.Stampede2, CondEst: res.CondEst}
			err = t.rec.timed("plan.best", 0, func() error { _, err := plan.Best(plan.Bucketed(preq)); return err })
			if err != nil {
				return err
			}
			if c == clsSmall {
				// One cached key, no-op executor: the plan lookup and
				// rank gate every request passes through.
				noop := func(plan.Plan) error { return nil }
				if _, _, err := inner.Do(t.e.ctx, preq, noop); err != nil {
					return err
				}
				err = t.rec.timed("serve.do_hit_batch", 0, func() error {
					for k := 0; k < hits; k++ {
						if _, _, err := inner.Do(t.e.ctx, preq, noop); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for c, cl := range classes {
		submit := t.setMed("root.submit_"+cl.name+"_s", "root.submit_"+cl.name)
		t.setMed("root.exec_"+cl.name+"_s", "root.exec_"+cl.name)
		t.set("cacqrd.overhead_"+cl.name+"_s", off[c]-submit, len(t.rec.durations("cacqrd."+cl.name)))
	}
	t.setMed("lin.condest_well_s", "lin.condest_small")
	t.setMed("lin.condest_ill_s", "lin.condest_ill")
	t.setMed("plan.best_s", "plan.best")
	batches := t.rec.durations("serve.do_hit_batch")
	t.set("serve.do_hit_ns", median(batches)/float64(hits)*1e9, len(batches)*hits)
	return nil
}

// condEstIters is the power-iteration bound cacqr.Server uses for its
// κ estimate (autotune.go); the probe must run the estimator as hard.
const condEstIters = 50
