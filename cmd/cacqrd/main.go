// Command cacqrd is the factorization daemon: cacqr.Server behind
// JSON-over-HTTP. It accepts factorization and least-squares requests of
// arbitrary shapes, plans each with the condition-aware planner, caches
// plans per (shape, procs, machine, memory budget, κ-bucket), batches
// same-key bursts through one plan lookup, and executes under a global
// simulated-rank budget.
//
//	cacqrd [-addr :8377] [-procs 16] [-cache 128] [-rank-budget 256]
//	       [-max-pending 1024] [-max-elems 16777216]
//	       [-mem 0] [-machine stampede2] [-workers 0]
//	       [-transport sim] [-tcp-workers host:port,...]
//	       [-trace-sample-rate 1] [-trace-retain 64]
//	       [-pprof-addr ""] [-quiet]
//	cacqrd worker [-listen :8378]
//
// -max-pending bounds admitted-but-unfinished requests: past it the
// daemon sheds load with HTTP 503 instead of queueing without bound.
// -max-elems bounds what one request may hold resident, not what it may
// ask for: a generator-backed factorization past the bound is served
// out-of-core through the streamed CholeskyQR2 under a memory budget of
// maxElems elements (the response carries "streamed": true with panel
// accounting, returns R on want_factors, and never returns Q), while an
// inline-"data" request past it is refused — 413 when the body cap
// trips, 400 on shape. The body cap always stands, even at
// -max-elems 0.
//
// -transport selects where distributed ranks run: "sim" (default) uses
// the simulated goroutine runtime with exact α-β-γ accounting;
// "tcp" runs each plan's ranks across the real OS worker processes
// named by -tcp-workers (comma-separated `cacqrd worker` listen
// addresses — the daemon itself is rank 0, and a plan on P ranks uses
// the first P−1 workers). The workers dial the daemon back on
// 127.0.0.1, so they run on its host. The `worker` subcommand is that
// other side: a process that serves ranks over TCP until terminated.
//
// Observability: -trace-sample-rate N samples 1 in N requests into a
// per-request span tree (1 = every request, 0 = tracing off); sampled
// responses carry "trace_id" and the tree is retrievable at
// /v1/trace/{id} while it stays in the -trace-retain ring. /metrics
// exposes the aggregated series in Prometheus text format, and
// -pprof-addr starts a separate net/http/pprof listener. Every request
// logs one structured line to stderr (suppress with -quiet) and echoes
// an X-Request-Id header (the caller's, or a generated one).
//
// Endpoints:
//
//	POST /v1/factorize   {"m","n","data"|"gen","procs","condest","want_factors"}
//	POST /v1/solve       same, plus "b" (length m)
//	GET  /healthz        liveness probe
//	GET  /stats          plan-cache, admission, per-key latency
//	                     (p50/p95/p99), and aggregated metric counters
//	GET  /metrics        Prometheus text exposition
//	GET  /v1/trace/{id}  span tree of a recent sampled request
//
// A request supplies the matrix either inline ("data": row-major values,
// length m·n) or as a deterministic generator ("gen": {"seed","cond"}),
// which keeps load-test payloads O(1). Responses carry the executed
// plan, whether it was served from the plan cache, the condition
// estimate the routing used, measured α-β-γ costs, and — for solves —
// the solution x. examples/serving is a ready-made traffic driver.
//
// The wire contract, for the numbers (wire.go). Every element of "data"
// and "b" is a JSON number — RFC 8259's grammar, read to the float64
// strconv.ParseFloat gives; null, a string, +1, .5, 1., hex, Inf and NaN
// are a 400 naming the element and its byte offset, and a number out of
// float64's range is a 400 too. Members may come in any order and
// everything else about the object (unknown, case-folded and repeated
// keys, escapes, the other fields' types) is encoding/json's rule, but
// "m" and "n" first is the fast path: the daemon then knows the length
// of each array where it starts, refuses a shape past -max-elems or an
// array of any other length before parsing or storing a number of it,
// and allocates the matrix once, the slice the executor then owns (a
// body that names "m" or "n" again after an array is judged on the
// shape the array followed). In any order, "data" must hold m·n numbers
// and "b", where present, m: 400 otherwise. The body is read once into
// one buffer sized from Content-Length, under the body cap. On the way
// out "x", "q" and "r" are the last members of the response, printed
// from the result's own storage in the shortest decimal form that reads
// back to the same float64 ('e' notation below 1e-6 and from 1e21: the
// digits encoding/json prints). A result JSON cannot carry — a NaN or
// ±Inf in x, q, r or cond_est — is a 500 naming the value, never a 200
// cut short.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	cacqr "cacqr"
	"cacqr/internal/hist"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		runWorker(os.Args[2:])
		return
	}
	var (
		addr       = flag.String("addr", ":8377", "listen address")
		procs      = flag.Int("procs", 16, "default per-request planning budget (simulated ranks)")
		cache      = flag.Int("cache", 0, "plan-cache entries (0 = default 128)")
		rankBudget = flag.Int("rank-budget", 0, "global simulated-rank execution budget (0 = default 256)")
		maxPending = flag.Int("max-pending", 0, "pending-request bound before shedding load with 503 (0 = default 1024)")
		mem        = flag.Int64("mem", 0, "per-rank memory budget in bytes (0 = unlimited)")
		maxElems   = flag.Int64("max-elems", 1<<24, "largest m·n a request may hold resident: bigger \"gen\" factorizations are served out-of-core (streamed), bigger inline \"data\" requests are refused (0 = no bound, streaming never engages)")
		machine    = flag.String("machine", "stampede2", `planning machine ("stampede2" or "bluewaters")`)
		workers    = flag.Int("workers", 0, "per-rank kernel goroutines (0 = serial)")
		transport  = flag.String("transport", "sim", `rank transport: "sim" (goroutine ranks) or "tcp" (real worker processes)`)
		tcpWorkers = flag.String("tcp-workers", "", "comma-separated `cacqrd worker` addresses (tcp transport only)")
		sampleRate = flag.Int("trace-sample-rate", 1, "trace 1 in N requests (1 = every request, 0 = tracing off)")
		retain     = flag.Int("trace-retain", 0, "finished traces kept for /v1/trace/{id} (0 = default 64)")
		pprofAddr  = flag.String("pprof-addr", "", "separate net/http/pprof listen address (empty = no pprof)")
		quiet      = flag.Bool("quiet", false, "suppress per-request log lines")
	)
	flag.Parse()

	opts := cacqr.Options{MemBudget: *mem, Workers: *workers}
	var tracer *cacqr.Tracer
	if *sampleRate > 0 {
		tracer = cacqr.NewTracer(cacqr.TracerOptions{SampleEvery: *sampleRate, Retain: *retain})
		opts.Tracer = tracer
	}
	switch *transport {
	case "sim":
		if *tcpWorkers != "" {
			log.Fatalf("-tcp-workers needs -transport tcp")
		}
	case "tcp":
		addrs := strings.Split(*tcpWorkers, ",")
		var clean []string
		for _, a := range addrs {
			if a = strings.TrimSpace(a); a != "" {
				clean = append(clean, a)
			}
		}
		if len(clean) == 0 {
			log.Fatalf("-transport tcp needs -tcp-workers (comma-separated worker addresses)")
		}
		opts.Transport = cacqr.TCPTransport(clean...)
	default:
		log.Fatalf("unknown -transport %q", *transport)
	}
	switch *machine {
	case "stampede2":
		opts.PlanMachine = &cacqr.Stampede2
	case "bluewaters":
		opts.PlanMachine = &cacqr.BlueWaters
	default:
		log.Fatalf("unknown -machine %q", *machine)
	}
	srv, err := cacqr.NewServer(cacqr.ServerOptions{
		Procs:        *procs,
		CacheEntries: *cache,
		RankBudget:   *rankBudget,
		MaxPending:   *maxPending,
		Options:      opts,
	})
	if err != nil {
		log.Fatalf("cacqrd: %v", err)
	}
	registerServeMetrics(tracer.Metrics(), srv)
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: buildMux(srv, tracer, *maxElems, *quiet)}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("cacqrd: shutting down")
		// Drain in-flight HTTP responses before retiring the server —
		// a request whose factorization completes should get its reply,
		// not a connection reset.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck
		srv.Close()
		close(done)
	}()
	log.Printf("cacqrd: serving on %s (procs=%d machine=%s transport=%s)", *addr, *procs, *machine, *transport)
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatalf("cacqrd: %v", err)
	}
	<-done
}

// runWorker is the `cacqrd worker` subcommand: one OS process serving
// factorization ranks over TCP until terminated.
func runWorker(args []string) {
	fs := flag.NewFlagSet("cacqrd worker", flag.ExitOnError)
	listen := fs.String("listen", ":8378", "rank-serving listen address")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cacqrd worker: %v", err)
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("cacqrd worker: shutting down")
		ln.Close()
	}()
	log.Printf("cacqrd worker: serving ranks on %s", ln.Addr())
	if err := cacqr.ServeWorker(ln); err != nil {
		log.Fatalf("cacqrd worker: %v", err)
	}
}

// buildMux wires the daemon's endpoints onto a fresh mux — separated
// from main so handler tests can drive it through httptest. tracer may
// be nil (tracing off): /metrics then serves an empty exposition and
// /v1/trace/{id} always 404s.
func buildMux(srv *cacqr.Server, tracer *cacqr.Tracer, maxElems int64, quiet bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsJSON(srv.Stats(), tracer))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		tracer.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/v1/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
		td, ok := tracer.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no retained trace %q (tracing off, never sampled, or evicted from the ring)", id))
			return
		}
		writeJSON(w, http.StatusOK, td)
	})
	mux.HandleFunc("/v1/factorize", handle(srv, false, maxElems, quiet))
	mux.HandleFunc("/v1/solve", handle(srv, true, maxElems, quiet))
	return mux
}

// servePprof runs the net/http/pprof handlers on their own listener —
// an explicit mux, not DefaultServeMux, so profiling exposure is a
// deliberate, separately-addressed choice.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("cacqrd: pprof on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("cacqrd: pprof listener: %v", err)
	}
}

// registerServeMetrics exposes the serve layer's live state and ledger
// through the metrics registry at scrape time — no double bookkeeping,
// and the lookup-ledger invariants (lookups = hits + misses) hold
// within one scrape because ServerStats snapshots under one lock.
func registerServeMetrics(m *cacqr.Metrics, srv *cacqr.Server) {
	gauge := func(name, help string, get func(cacqr.ServerStats) float64) {
		m.GaugeFunc(name, help, func() float64 { return get(srv.Stats()) })
	}
	counter := func(name, help string, get func(cacqr.ServerStats) float64) {
		m.CounterFunc(name, help, func() float64 { return get(srv.Stats()) })
	}
	counter("cacqr_serve_requests_total", "Request units admitted.",
		func(st cacqr.ServerStats) float64 { return float64(st.Requests) })
	counter("cacqr_plan_cache_lookups_total", "Plan-resolution attempts in request units.",
		func(st cacqr.ServerStats) float64 { return float64(st.Lookups) })
	counter("cacqr_plan_cache_hits_total", "Plan lookups served from the cache.",
		func(st cacqr.ServerStats) float64 { return float64(st.Hits) })
	counter("cacqr_plan_cache_misses_total", "Plan lookups that missed the cache.",
		func(st cacqr.ServerStats) float64 { return float64(st.Misses) })
	counter("cacqr_plan_cache_evictions_total", "Plans evicted from the LRU.",
		func(st cacqr.ServerStats) float64 { return float64(st.Evictions) })
	counter("cacqr_serve_overloaded_total", "Requests refused at admission.",
		func(st cacqr.ServerStats) float64 { return float64(st.Overloaded) })
	gauge("cacqr_serve_pending", "Request units admitted and unfinished (queue depth).",
		func(st cacqr.ServerStats) float64 { return float64(st.Pending) })
	gauge("cacqr_serve_in_flight_ranks", "Simulated-rank tokens currently held.",
		func(st cacqr.ServerStats) float64 { return float64(st.InFlightRanks) })
	gauge("cacqr_plan_cache_entries", "Current plan-cache population.",
		func(st cacqr.ServerStats) float64 { return float64(st.Entries) })
}

// request is one factorize/solve call as decodeRequest leaves it: the
// tagged fields are encoding/json's, the two arrays the scanner's.
type request struct {
	M           int       `json:"m"`
	N           int       `json:"n"`
	Data        []float64 `json:"-"` // "data": row-major, length m·n
	Gen         *genSpec  `json:"gen,omitempty"`
	B           []float64 `json:"-"` // "b": length m
	Procs       int       `json:"procs,omitempty"`
	CondEst     float64   `json:"condest,omitempty"`
	WantFactors bool      `json:"want_factors,omitempty"`
}

// genSpec asks for the deterministic generator instead of inline data.
type genSpec struct {
	Seed int64   `json:"seed"`
	Cond float64 `json:"cond,omitempty"` // >1: prescribed κ₂
}

// response is the wire form of the outcome, all but its arrays:
// writeResult appends "x", "q" and "r" after the last field here.
type response struct {
	Variant      string  `json:"variant"`
	Grid         string  `json:"grid"`
	Procs        int     `json:"procs"`
	PlanCacheHit bool    `json:"plan_cache_hit"`
	CondEst      float64 `json:"cond_est"`
	Msgs         int64   `json:"msgs_per_proc"`
	Words        int64   `json:"words_per_proc"`
	Flops        int64   `json:"flops_per_proc"`
	Bytes        int64   `json:"bytes_per_proc,omitempty"` // wire bytes (tcp transport only)
	SimSeconds   float64 `json:"sim_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
	TraceID      string  `json:"trace_id,omitempty"` // set when the request was sampled
	// Out-of-core runs only: the request exceeded -max-elems and was
	// served by the streamed CholeskyQR2 instead of being rejected. Q is
	// never returned for a streamed run (it is as big as the input); R is
	// n×n and small.
	Streamed      bool  `json:"streamed,omitempty"`
	Panels        int   `json:"panels,omitempty"`
	PanelRows     int   `json:"panel_rows,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
}

// reqSeq numbers generated request IDs within this daemon process.
var reqSeq atomic.Int64

// requestID echoes the caller's X-Request-Id or mints one, and stamps
// it on the response so every reply — success or error — is correlatable
// with the daemon's log line for it.
func requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = fmt.Sprintf("req-%06d", reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", id)
	return id
}

// defaultBodyCap bounds the request body when -max-elems is 0 and no
// shape-derived limit exists. 1 GiB of JSON is far past any sane
// request; the point is that *some* cap always stands between a client
// and the buffer its body is read into.
const defaultBodyCap = 1 << 30

// bodyCap is the request-body limit handle installs before decoding:
// the inline-"data" path is ~25 bytes per JSON float, so
// 32·maxElems (+ slack for "b" and the envelope) holds any matrix the
// shape bound admits, and it is all one request can make the daemon
// buffer. With -max-elems 0 there is no shape bound, but the body is
// still capped at defaultBodyCap — before this existed an unlimited
// daemon would buffer a body of any size, which is exactly the OOM the
// flag was meant to guard.
func bodyCap(maxElems int64) int64 {
	if maxElems > 0 {
		return 32*maxElems + 1<<20
	}
	return defaultBodyCap
}

func handle(srv *cacqr.Server, solve bool, maxElems int64, quiet bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := requestID(w, r)
		start := time.Now()
		var req request
		var res *cacqr.SubmitResult
		logLine := func(err error) {
			if quiet {
				return
			}
			variant, kappaBucket, hit, traceID := "-", "-", false, "-"
			if res != nil {
				variant = string(res.Plan.Variant)
				kappaBucket = fmt.Sprintf("%d", cacqr.KappaBucket(res.CondEst))
				hit = res.PlanCacheHit
				if res.TraceID != "" {
					traceID = res.TraceID
				}
			}
			outcome := "ok"
			if err != nil {
				outcome = fmt.Sprintf("error=%q", err)
			}
			log.Printf("request id=%s shape=%dx%d variant=%s kappa_bucket=%s cache_hit=%t trace=%s dur=%s %s",
				id, req.M, req.N, variant, kappaBucket, hit, traceID,
				time.Since(start).Round(time.Microsecond), outcome)
		}
		// fail answers a request that never reached the server.
		fail := func(code int, err error) {
			writeError(w, code, err)
			logLine(err)
		}
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, bodyCap(maxElems))
		req, err := decodeRequest(r.Body, r.ContentLength, maxElems)
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			fail(code, fmt.Errorf("bad request body: %w", err))
			return
		}
		if req.B != nil && len(req.B) != req.M {
			// decodeRequest says the same of a "b" that follows "m".
			fail(http.StatusBadRequest, fmt.Errorf("bad request body: %q holds %d numbers, the shape needs %d", "b", len(req.B), req.M))
			return
		}
		if req.Gen != nil && req.Data == nil && req.M >= 1 && req.N >= 1 &&
			checkElems(req.M, req.N, maxElems) != nil {
			// An over--max-elems generator request streams instead of
			// being rejected: the matrix never needs to be resident, so
			// the flag's OOM guard is honored by running out-of-core
			// under a budget of maxElems elements rather than by
			// refusing the work.
			src, serr := streamSource(req, solve, maxElems)
			if serr != nil {
				fail(http.StatusBadRequest, serr)
				return
			}
			res, err = srv.SubmitStreamCtx(r.Context(), cacqr.StreamRequest{
				Source:    src,
				CondEst:   req.CondEst,
				MemBudget: 8 * maxElems,
			})
		} else {
			a, berr := buildMatrix(req, maxElems)
			if berr != nil {
				fail(http.StatusBadRequest, berr)
				return
			}
			sub := cacqr.SubmitRequest{A: a, Procs: req.Procs, CondEst: req.CondEst}
			if solve {
				if req.B == nil {
					fail(http.StatusBadRequest, fmt.Errorf("solve needs \"b\" (length m)"))
					return
				}
				sub.B = req.B
			}
			res, err = srv.SubmitCtx(r.Context(), sub)
		}
		if err != nil {
			code := http.StatusUnprocessableEntity
			if errors.Is(err, cacqr.ErrOverloaded) {
				// Shed load visibly: clients should back off, not queue.
				code = http.StatusServiceUnavailable
			}
			fail(code, err)
			return
		}
		err = writeResult(w, res, req.WantFactors, time.Since(start))
		if errors.Is(err, errNonFinite) {
			fail(http.StatusInternalServerError, err)
			return
		}
		logLine(nil)
		if err != nil {
			// The status line is out; all that is left is to say so.
			log.Printf("request id=%s: %v", id, err)
		}
	}
}

// streamSource builds the never-resident generator source behind an
// over--max-elems request, refusing what cannot stream.
func streamSource(req request, solve bool, maxElems int64) (*cacqr.MatrixSource, error) {
	if solve {
		return nil, fmt.Errorf("shape %dx%d exceeds -max-elems %d and solve cannot stream: x = R⁻¹·Qᵀb needs a pass over Q the streaming path does not keep", req.M, req.N, maxElems)
	}
	if err := checkGenCond(req.Gen.Cond); err != nil {
		return nil, err
	}
	if req.Gen.Cond > 1 {
		return nil, fmt.Errorf("gen.cond %g needs the exact-κ generator, which materializes the whole %dx%d matrix — beyond -max-elems %d; omit cond (or set ≤ 1) for streamable generation", req.Gen.Cond, req.M, req.N, maxElems)
	}
	return cacqr.SourceFromGenerator(req.M, req.N, req.Gen.Seed)
}

// buildResponse is the wire form of one outcome, streamed or resident.
func buildResponse(res *cacqr.SubmitResult, wall time.Duration) response {
	out := response{
		Variant:      string(res.Plan.Variant),
		Grid:         res.Plan.GridString(),
		Procs:        res.Plan.Procs,
		PlanCacheHit: res.PlanCacheHit,
		CondEst:      res.CondEst,
		Msgs:         res.Stats.Msgs,
		Words:        res.Stats.Words,
		Flops:        res.Stats.Flops,
		Bytes:        res.Stats.Bytes,
		SimSeconds:   res.Stats.Time,
		WallSeconds:  wall.Seconds(),
		TraceID:      res.TraceID,
	}
	if st := res.Stream; st != nil {
		out.Streamed = true
		out.Panels, out.PanelRows, out.ResidentBytes = st.Panels, st.PanelRows, st.MaxResidentBytes
	}
	return out
}

// checkElems refuses an m×n shape (m, n ≥ 1) past the -max-elems bound.
func checkElems(m, n int, maxElems int64) error {
	if maxElems > 0 && int64(m) > maxElems/int64(n) {
		return fmt.Errorf("shape %dx%d exceeds the daemon's -max-elems bound of %d", m, n, maxElems)
	}
	return nil
}

// buildMatrix materializes the request's matrix from inline data or the
// deterministic generator, refusing shapes beyond the -max-elems bound
// before anything is allocated — one oversized "gen" request must not
// OOM the daemon out from under every other client. Inline data is not
// copied: the slice decodeRequest filled becomes the matrix.
func buildMatrix(req request, maxElems int64) (*cacqr.Dense, error) {
	if req.M < 1 || req.N < 1 {
		return nil, fmt.Errorf("invalid shape %dx%d", req.M, req.N)
	}
	if err := checkElems(req.M, req.N, maxElems); err != nil {
		return nil, err
	}
	switch {
	case req.Data != nil && req.Gen != nil:
		return nil, fmt.Errorf(`give "data" or "gen", not both`)
	case req.Data != nil:
		if len(req.Data)/req.N != req.M || len(req.Data)%req.N != 0 {
			return nil, fmt.Errorf("%q holds %d numbers, not the m·n of a %dx%d matrix", "data", len(req.Data), req.M, req.N)
		}
		return &cacqr.Dense{Rows: req.M, Cols: req.N, Data: req.Data}, nil
	case req.Gen != nil:
		if err := checkGenCond(req.Gen.Cond); err != nil {
			return nil, err
		}
		if req.Gen.Cond > 1 {
			if req.M < req.N {
				// The exact-κ generator scales an m×n orthonormal basis and
				// panics on a wide one; Submit would refuse the shape anyway.
				return nil, fmt.Errorf("gen.cond needs m ≥ n, got %dx%d", req.M, req.N)
			}
			return cacqr.RandomWithCond(req.M, req.N, req.Gen.Cond, req.Gen.Seed), nil
		}
		return cacqr.RandomMatrix(req.M, req.N, req.Gen.Seed), nil
	default:
		return nil, fmt.Errorf(`matrix missing: give "data" (row-major, length m·n) or "gen" {"seed","cond"}`)
	}
}

// checkGenCond rejects generator condition targets the dispatch above
// would otherwise misread: NaN, ±Inf, and negative values are not a
// κ₂ — before this check they silently compared false against "> 1"
// and fell through to the unconditioned generator, returning a matrix
// the caller did not ask for. Zero (omitted) and values in [0, 1] mean
// "no target": κ₂ ≥ 1 always, so plain RandomMatrix serves those.
func checkGenCond(cond float64) error {
	if math.IsNaN(cond) || math.IsInf(cond, 0) || cond < 0 {
		return fmt.Errorf("invalid gen.cond %g (want a finite target κ ≥ 1, or 0/omitted for an unconditioned random matrix)", cond)
	}
	return nil
}

// statsJSON flattens ServerStats for the wire, adding the derived rate.
// "latencies" maps plan-key strings to {"count","sum","p50","p95","p99"}
// (seconds, nearest-rank over the retained window); it is an empty
// object until the first request completes. When tracing is on,
// "metrics" folds in the registry's aggregated series.
func statsJSON(st cacqr.ServerStats, tracer *cacqr.Tracer) map[string]any {
	if st.Latencies == nil {
		st.Latencies = map[string]hist.Summary{}
	}
	out := map[string]any{
		"requests":        st.Requests,
		"lookups":         st.Lookups,
		"hits":            st.Hits,
		"misses":          st.Misses,
		"evictions":       st.Evictions,
		"entries":         st.Entries,
		"planned":         st.Planned,
		"batched":         st.Batched,
		"leads":           st.Leads,
		"in_flight_ranks": st.InFlightRanks,
		"rank_budget":     st.RankBudget,
		"hit_rate":        st.HitRate(),
		"pending":         st.Pending,
		"max_pending":     st.MaxPending,
		"overloaded":      st.Overloaded,
		"latencies":       st.Latencies,
	}
	if m := tracer.Metrics().Snapshot(); m != nil {
		out["metrics"] = m
	}
	return out
}

// writeJSON answers everything but a completed request (writeResult):
// stats, health, traces and errors, small enough for reflection.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
