package cacqr

// End-to-end coverage of the pluggable transport: every distributed
// variant must produce the same factors over real TCP processes as on
// the simulated runtime, with wire-byte counters populated. The
// in-process tests serve workers on goroutine listeners; the
// real-process tests re-exec this test binary as `worker` helper
// processes, so the factorization genuinely crosses OS process
// boundaries.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cacqr/internal/lin"
)

// startLocalWorkers serves n in-process workers on loopback listeners.
func startLocalWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i] = ln.Addr().String()
		go ServeWorker(ln)
		t.Cleanup(func() { ln.Close() })
	}
	return addrs
}

func denseMaxDiff(a, b *Dense) float64 {
	if a == nil || b == nil {
		return math.Inf(1)
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var d float64
	for i := range a.Data {
		if diff := math.Abs(a.Data[i] - b.Data[i]); diff > d {
			d = diff
		}
	}
	return d
}

// TestTCPTransportMatchesSim factors the same matrix on the simulated
// runtime and over TCP workers for every distributed variant — one plan
// per variant, a c=3 grid whose three-member reductions land on a root
// other than member 0, and every row the planner enumerates for a test
// shape — and demands bitwise-identical factors (both backends sum a
// reduction in member order) plus populated byte counters on the TCP
// side. On each transport it also holds FactorizeOnGrid to being sugar:
// it and the CA-CQR2 plan through FactorizePlan must give bitwise-equal
// Q and R and equal counted costs.
func TestTCPTransportMatchesSim(t *testing.T) {
	a := RandomMatrix(1024, 64, 7)
	wide := RandomMatrix(1152, 48, 9)
	workers := startLocalWorkers(t, 26) // the 3×3×3 grid's 27 ranks, less the coordinator's
	tcp := Options{Transport: TCPTransport(workers...), Timeout: time.Minute}

	type testCase struct {
		name string
		a    *Dense
		plan Plan // hand-built: the variant and its extents, nothing priced
	}
	cases := []testCase{
		{"1d", a, Plan{Variant: Variant1DCQR2, Procs: 4}},
		{"shifted1d", a, Plan{Variant: VariantShiftedCQR3, Procs: 4}},
		{"tsqr", a, Plan{Variant: VariantTSQR, Procs: 4}},
		{"grid", a, Plan{Variant: VariantCACQR2, C: 1, D: 4}},
		{"grid-c3d3", wide, Plan{Variant: VariantCACQR2, C: 3, D: 3}},
		{"pgeqrf", a, Plan{Variant: VariantPGEQRF, D: 2, C: 2, PanelWidth: 16}},
	}
	small := RandomMatrix(128, 16, 3)
	rows, err := PlanGrid(small.Rows, small.Cols, 8, Options{IncludeBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rows {
		name := fmt.Sprintf("row/%s/%s/b%d", p.Variant, p.GridString(), p.PanelWidth)
		cases = append(cases, testCase{name, small, p})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := FactorizePlan(tc.a, tc.plan, Options{})
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			over, err := FactorizePlan(tc.a, tc.plan, tcp)
			if err != nil {
				t.Fatalf("tcp run: %v", err)
			}
			if d := denseMaxDiff(sim.Q, over.Q); d > 0 {
				t.Errorf("Q differs between transports by %g", d)
			}
			if d := denseMaxDiff(sim.R, over.R); d > 0 {
				t.Errorf("R differs between transports by %g", d)
			}
			if sim.Stats.Bytes != 0 {
				t.Errorf("sim run reported %d wire bytes", sim.Stats.Bytes)
			}
			if tc.plan.Procs > 1 || tc.plan.C*tc.plan.D > 1 {
				if over.Stats.Bytes <= 0 {
					t.Errorf("tcp run reported no wire bytes")
				}
				if over.Stats.Msgs <= 0 || over.Stats.Words <= 0 {
					t.Errorf("tcp counters not populated: %+v", over.Stats)
				}
			}
			if tc.plan.Variant != VariantCACQR2 {
				return
			}
			for _, side := range []struct {
				name    string
				opts    Options
				viaPlan *Result
			}{{"sim", Options{}, sim}, {"tcp", tcp, over}} {
				entry, err := FactorizeOnGrid(tc.a, GridSpec{C: tc.plan.C, D: tc.plan.D}, side.opts)
				if err != nil {
					t.Fatalf("%s: FactorizeOnGrid: %v", side.name, err)
				}
				if denseMaxDiff(entry.Q, side.viaPlan.Q) > 0 || denseMaxDiff(entry.R, side.viaPlan.R) > 0 {
					t.Errorf("%s: FactorizeOnGrid and FactorizePlan(%v) differ bitwise", side.name, tc.plan)
				}
				got, want := side.viaPlan.Stats, entry.Stats
				if side.name == "tcp" {
					got.Time, want.Time = 0, 0 // wall-clock over TCP
				}
				if got != want {
					t.Errorf("%s: FactorizePlan(%v) stats %+v, FactorizeOnGrid %+v", side.name, tc.plan, got, want)
				}
			}
		})
	}
}

// TestJobGobRoundTrip ships the job of every plan row the planner
// enumerates — in-core rows, the baseline, and the out-of-core rows a
// tight budget brings out — through the worker payload codec: what gob
// carries is the whole exported description, and nothing of the
// launching process's transport, timeout or hint.
func TestJobGobRoundTrip(t *testing.T) {
	const m, n = 1024, 16
	var rows []Plan
	for _, req := range []struct {
		procs int
		opts  Options
	}{{8, Options{IncludeBaselines: true}}, {1, Options{MemBudget: 45000}}} {
		ps, err := PlanGrid(m, n, req.procs, req.opts)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, ps...)
	}
	seen := map[Variant]bool{}
	for _, p := range rows {
		seen[p.Variant] = true
		j, err := newJob(m, n, p, Options{InverseDepth: 1, BaseSize: 4, Workers: 2, CondEst: 1e3, Timeout: time.Second, Transport: SimTransport()})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		payload, err := encodeJobPayload(j, nil)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got, local, err := decodeJobPayload(payload)
		if err != nil || local != nil {
			t.Fatalf("%v: decode gave block %v, err %v", p, local, err)
		}
		want := j
		want.transport, want.timeout, want.condEst = nil, 0, 0
		if got != want {
			t.Errorf("%v: round trip gave %+v, want %+v", p, got, want)
		}
	}
	for _, v := range []Variant{Variant1DCQR2, VariantShiftedCQR3, VariantCACQR2, VariantPanelCACQR2, VariantTSQR, VariantPGEQRF, VariantStreamCQR2} {
		if !seen[v] {
			t.Errorf("no %s row was enumerated", v)
		}
	}

	// A staged block travels as the matrix it is — a strided view's
	// storage is not what a worker should index — and one whose storage
	// does not fit its shape is refused before any kernel sees it.
	block := RandomMatrix(6, 4, 3).view()
	payload, err := encodeJobPayload(job{}, block)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := decodeJobPayload(payload); err != nil || !got.Equal(block) {
		t.Fatalf("block round trip gave %v, err %v", got, err)
	}
	for name, bad := range map[string]*lin.Matrix{
		"short":    {Rows: 6, Cols: 4, Stride: 4, Data: make([]float64, 23)},
		"strided":  block.View(0, 0, 6, 2),
		"negative": {Rows: -1, Cols: -4, Stride: -4, Data: make([]float64, 4)},
	} {
		payload, err := encodeJobPayload(job{}, bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeJobPayload(payload); err == nil || !strings.Contains(err.Error(), "bad worker payload") {
			t.Errorf("%s block: decode returned %v, want a bad-payload error", name, err)
		}
	}
}

// TestUnknownVariantFailsOnEveryRank hands real workers a job whose
// variant none of them knows (a newer coordinator, a corrupted payload):
// every rank must refuse it before its first collective, so the run
// returns the error instead of hanging on a half-entered collective
// until the timeout.
func TestUnknownVariantFailsOnEveryRank(t *testing.T) {
	workers := startLocalWorkers(t, 3)
	j := job{
		Plan: Plan{Variant: "cqr-from-the-future", Procs: 4}, M: 64, N: 8,
		transport: TCPTransport(workers...), timeout: 30 * time.Second,
	}
	start := time.Now()
	_, err := execute(context.Background(), j, SourceFromDense(RandomMatrix(64, 8, 1)).src, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown job variant") {
		t.Fatalf("unknown variant returned %v, want the variant error", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("unknown variant took %v to fail: ranks waited on each other", d)
	}
}

// TestTCPTransportReusesWorkerPool runs plans of different rank counts
// against one worker pool: a job on np ranks uses the first np−1
// workers, so a pool sized for the largest plan serves smaller ones too.
func TestTCPTransportReusesWorkerPool(t *testing.T) {
	a := RandomMatrix(256, 16, 3)
	workers := startLocalWorkers(t, 3)
	opts := Options{Transport: TCPTransport(workers...), Timeout: time.Minute}
	for _, procs := range []int{1, 2, 4} {
		if _, err := FactorizePlan(a, Plan{Variant: Variant1DCQR2, Procs: procs}, opts); err != nil {
			t.Fatalf("procs=%d over 3-worker pool: %v", procs, err)
		}
	}
}

func TestTCPTransportTooFewWorkers(t *testing.T) {
	a := RandomMatrix(256, 16, 3)
	workers := startLocalWorkers(t, 1)
	opts := Options{Transport: TCPTransport(workers...), Timeout: time.Minute}
	_, err := FactorizePlan(a, Plan{Variant: Variant1DCQR2, Procs: 4}, opts)
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("4-rank job on 1 worker returned %v, want worker-count error", err)
	}
}

// TestSubmitCtxCancellation: a canceled request context must abort the
// submission with the context's error instead of running it.
// TestBreakdownTypedOverTCP holds the TCP transport to the simulator's
// error contract: a Cholesky breakdown is ErrIllConditioned wrapping
// lin.ErrNotPositiveDefinite whichever rank's report reaches the
// coordinator first — rank 0's own, or a worker's, which crosses the
// control connection as text and aborts rank 0 before its own Cholesky
// runs. Each run is repeated because which rank wins is a race.
func TestBreakdownTypedOverTCP(t *testing.T) {
	tcp := Options{Transport: TCPTransport(startLocalWorkers(t, 15)...), Timeout: time.Minute}
	ill := RandomWithCond(256, 16, 1e10, 1)
	singularPanel := RandomMatrix(256, 16, 5)
	for i := 0; i < singularPanel.Rows; i++ {
		singularPanel.Set(i, 12, 0)
	}
	for _, tc := range []struct {
		name string
		a    *Dense
		plan Plan
	}{
		{"grid", ill, GridSpec{C: 2, D: 4}.asPlan(tcp)},
		{"panel", singularPanel, Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: 8}},
		{"1d", ill, Plan{Variant: Variant1DCQR2, Procs: 8}},
	} {
		for rep := 0; rep < 10; rep++ {
			_, err := FactorizePlan(tc.a, tc.plan, tcp)
			if !errors.Is(err, ErrIllConditioned) || !errors.Is(err, lin.ErrNotPositiveDefinite) {
				t.Fatalf("%s, run %d: got %v, want ErrIllConditioned wrapping lin.ErrNotPositiveDefinite", tc.name, rep, err)
			}
		}
	}
}

func TestSubmitCtxCancellation(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = srv.SubmitCtx(ctx, SubmitRequest{A: RandomMatrix(256, 16, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit returned %v, want context.Canceled", err)
	}
}

// TestHelperWorkerProcess is not a test: it is the body of the worker
// processes the real-process tests spawn. It serves ranks on a loopback
// listener, publishes the address through the file named by
// CACQR_WORKER_ADDR_FILE, and runs until the parent kills it.
func TestHelperWorkerProcess(t *testing.T) {
	addrFile := os.Getenv("CACQR_WORKER_ADDR_FILE")
	if addrFile == "" {
		t.Skip("helper body for the real-process transport tests")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("helper listen: %v", err)
	}
	// Write to a temp name first so the parent never reads a partial
	// address.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("helper addr file: %v", err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatalf("helper addr file: %v", err)
	}
	if err := ServeWorker(ln); err != nil {
		t.Fatalf("helper serve: %v", err)
	}
}

// startWorkerProcesses spawns n real OS worker processes by re-execing
// the test binary into TestHelperWorkerProcess, and returns their
// addresses once all have come up.
func startWorkerProcesses(t *testing.T, n int) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrFile := filepath.Join(t.TempDir(), "addr")
		cmd := exec.Command(exe, "-test.run=^TestHelperWorkerProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "CACQR_WORKER_ADDR_FILE="+addrFile)
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker process: %v", err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		deadline := time.Now().Add(20 * time.Second)
		for {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				addrs[i] = string(b)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker process %d never published its address", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return addrs
}

// TestFactorizationAcrossRealProcesses is the acceptance path: a
// 1024×64 factorization sharded over real OS worker processes through
// the TCP transport must reproduce the simulated factors bitwise, with
// wire-byte counters populated.
func TestFactorizationAcrossRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	a := RandomMatrix(1024, 64, 11)
	workers := startWorkerProcesses(t, 3)
	tcp := Options{Transport: TCPTransport(workers...), Timeout: time.Minute}

	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"cqr2-1d", Plan{Variant: Variant1DCQR2, Procs: 4}},
		{"tsqr", Plan{Variant: VariantTSQR, Procs: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := FactorizePlan(a, tc.plan, Options{})
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			over, err := FactorizePlan(a, tc.plan, tcp)
			if err != nil {
				t.Fatalf("tcp run across processes: %v", err)
			}
			if d := denseMaxDiff(sim.Q, over.Q); d > 0 {
				t.Errorf("Q differs between transports by %g", d)
			}
			if d := denseMaxDiff(sim.R, over.R); d > 0 {
				t.Errorf("R differs between transports by %g", d)
			}
			if over.Stats.Bytes <= 0 {
				t.Errorf("no wire bytes counted across real processes")
			}
			if q := OrthogonalityError(over.Q); q > 1e-10 {
				t.Errorf("Q from real processes lost orthogonality: %g", q)
			}
			if res := ResidualNorm(a, over.Q, over.R); res > 1e-12 {
				t.Errorf("A ≠ QR across real processes: residual %g", res)
			}
		})
	}
}
