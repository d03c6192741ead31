package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// header records where and on what a results file was measured.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
}

// workloadResult pairs a workload's two runs.
type workloadResult struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	Loop     string     `json:"loop"`
	Clients  int        `json:"clients"`
	EndToEnd *runResult `json:"end_to_end"`
	Layers   *runResult `json:"per_layer"`
}

// suite is one pass over every workload; it is also results.json.
type suite struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
	// SelfCheck is present when the file came from -selfcheck: the
	// observed A/A spread per metric, for later issues to quote.
	SelfCheck []spread `json:"selfcheck,omitempty"`
	// Claim is always null: this benchmark is the ruler, it claims no
	// gain. Kept last so that every summary ends with it.
	Claim *string `json:"claim"`
}

func newHeader(e *env, seconds float64) header {
	h := header{
		Seed: e.seed, Seconds: seconds, Quick: e.quick,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; then the commit
	// stays unknown.
	cmd := exec.CommandContext(e.ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// reversed returns ws back to front.
func reversed(ws []*workload) []*workload {
	out := make([]*workload, len(ws))
	for i, w := range ws {
		out[len(ws)-1-i] = w
	}
	return out
}

// runSuite measures each workload in order, end to end and then traced.
func runSuite(e *env, seconds float64, order []*workload) (*suite, error) {
	s := &suite{Header: newHeader(e, seconds)}
	for _, w := range order {
		e2e, err := runEndToEnd(e, w, seconds)
		if err != nil {
			return nil, err
		}
		printResult(os.Stdout, w, e2e)
		layers, err := runTraced(e, w, seconds)
		if err != nil {
			return nil, err
		}
		printResult(os.Stdout, w, layers)
		s.Workloads = append(s.Workloads, workloadResult{
			Name: w.name, Why: w.why, Loop: "closed", Clients: w.clients, EndToEnd: e2e, Layers: layers,
		})
	}
	return s, nil
}

// failedOps totals the suite's attempted and failed ops.
func (s *suite) failedOps() (attempted, failed int) {
	for _, w := range s.Workloads {
		for _, r := range []*runResult{w.EndToEnd, w.Layers} {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return attempted, failed
}

// finish writes results.json, prints the summary, and turns failed ops
// into an error.
func (s *suite) finish(e *env, check []spread) error {
	s.SelfCheck = check
	path := filepath.Join(e.outDir(), "results.json")
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	attempted, failed := s.failedOps()
	summary, err := json.Marshal(struct {
		Workloads int     `json:"workloads"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Results   string  `json:"results"`
		Claim     *string `json:"claim"`
	}{len(s.Workloads), attempted, failed, "benchmark/out/results.json", nil})
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	fmt.Printf("\n%s\n", summary)
	if failed > 0 {
		return fmt.Errorf("%d of %d ops failed verification", failed, attempted)
	}
	return nil
}

// spread is one metric's A/A comparison between two runs of the suite.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// WorseBy is how far the worse of the two sits from the better, as
	// a share of the better; Bound is what the metric allows.
	WorseBy float64 `json:"worse_by"`
	Bound   float64 `json:"bound"`
	OK      bool    `json:"ok"`
}

// compare sets run b against run a: end-to-end metrics within their
// bounds in either direction, counted metrics bit for bit.
func compare(a, b *suite) []spread {
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	var out []spread
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		for _, d := range endToEnd {
			x, y := wa.EndToEnd.Metrics[d.Name].Value, wb.EndToEnd.Metrics[d.Name].Value
			worse := math.Max(worseBy(x, y, d.Better), worseBy(y, x, d.Better))
			out = append(out, spread{wa.Name, d.Name, x, y, worse, d.Bound, worse <= d.Bound})
		}
		for _, d := range perLayer {
			if d.Kind != counted {
				continue
			}
			x, y := wa.Layers.Metrics[d.Name].Value, wb.Layers.Metrics[d.Name].Value
			same := math.Float64bits(x) == math.Float64bits(y)
			out = append(out, spread{Workload: wa.Name, Metric: d.Name, A: x, B: y, OK: same})
		}
	}
	return out
}

// runSelfCheck runs the suite twice on the same build, the second time
// in reverse workload order, and fails if the runs disagree.
func runSelfCheck(e *env, seconds float64) error {
	a, err := runSuite(e, seconds, workloads)
	if err != nil {
		return err
	}
	b, err := runSuite(e, seconds, reversed(workloads))
	if err != nil {
		return err
	}
	check := compare(a, b)
	var bad []string
	fmt.Printf("\n== selfcheck: A/A spread\n")
	for _, s := range check {
		if s.Bound > 0 {
			fmt.Printf("   %-12s %-12s a=%-12.6g b=%-12.6g worse by %5.1f %% (bound %2.0f %%)\n", s.Workload, s.Metric, s.A, s.B, 100*s.WorseBy, 100*s.Bound)
		}
		if !s.OK {
			bad = append(bad, s.Workload+"/"+s.Metric)
		}
	}
	if err := a.finish(e, check); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same build disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}
