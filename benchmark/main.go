// Command benchmark is the repository's ruler: six named workloads,
// from cacqr.CholeskyQR2 on one tall matrix to two HTTP clients against
// a cacqrd subprocess, each measured end to end with tracing off and
// then replayed layer by layer under benchmark-owned spans.
//
//	go run ./benchmark [-seed N] [-seconds S] [-quick] [-selfcheck]
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// The first form runs every workload both ways, prints every metric by
// name with its unit, and writes benchmark/out/results.json plus one
// span file per workload. The second form is what BENCHMARK.json's
// driver calls: one workload, one mode, and a single JSON object as the
// last line of standard output. See README.md for what each number
// means and why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// workloads in their canonical order.
var workloads = []*workload{seqTall, gridSim, gridTCP, serveHTTP, serveBatch, streamFile}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred clean-up (daemon
// killed, listeners closed, scratch removed) happens on every path,
// SIGINT and verification failure included.
func run() int {
	var (
		name      = flag.String("workload", "", "run this workload only and print the driver's JSON line")
		seed      = flag.Int64("seed", 1, "every input derives from this seed")
		seconds   = flag.Float64("seconds", 10, "measured time per workload run")
		trace     = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced run")
		quick     = flag.Bool("quick", false, "smoke sizes: a few ops per workload (-seconds then defaults to 0.2)")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice on this build and fail if the two disagree beyond the bounds")
	)
	flag.Parse()
	if *quick {
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 0.2
		}
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	warnHost()
	e, err := newEnv(ctx, *seed, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.close()

	switch {
	case *name != "":
		err = runContract(e, *name, *seconds, *trace)
	case *selfcheck:
		err = runSelfCheck(e, *seconds)
	default:
		var s *suite
		if s, err = runSuite(e, *seconds, workloads); err == nil {
			err = s.finish(e, nil)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// warnHost says loudly when the machine cannot show what the suite is
// built to show: the parallel kernels need a second core, and two HTTP
// clients plus a daemon need GOMAXPROCS to match the cores.
func warnHost() {
	nproc, gmp := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if nproc < 2 {
		fmt.Fprintf(os.Stderr, "\n*** WARNING: nproc = %d: lin.par_speedup and the two-client serve-http numbers mean nothing on one core ***\n\n", nproc)
	}
	if gmp != nproc {
		fmt.Fprintf(os.Stderr, "\n*** WARNING: GOMAXPROCS = %d but nproc = %d: numbers are not comparable with a default run ***\n\n", gmp, nproc)
	}
}

// runContract is the driver's entry: one workload, one mode, and the
// result object as the last line of standard output.
func runContract(e *env, name string, seconds float64, trace int) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res *runResult
	var err error
	switch trace {
	case 0:
		res, err = runEndToEnd(e, w, seconds)
	case 1:
		res, err = runTraced(e, w, seconds)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	printResult(os.Stderr, w, res)
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wireMetric{}}
	for k, m := range res.Metrics {
		line.Metrics[k] = wireMetric{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

// printResult lists one run's metrics by name, with unit, sample count
// and how the number was obtained.
func printResult(f *os.File, w *workload, r *runResult) {
	mode := "end to end, tracing off"
	if r.Traced {
		mode = "traced run, per layer"
	}
	fmt.Fprintf(f, "\n== %s (%s; closed loop, clients=%d): %d ops attempted, %d failed\n", w.name, mode, w.clients, r.Attempted, r.Failed)
	if r.FirstErr != "" {
		fmt.Fprintf(f, "   first failure: %s\n", r.FirstErr)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if d.Owner != "" && d.Owner != w.name {
			continue // another workload's layer: reported as 0, not shown
		}
		m := r.Metrics[d.Name]
		fmt.Fprintf(f, "   %-28s %16.6g %-8s n=%-7d %s\n", d.Name, m.Value, m.Unit, m.N, m.Kind)
	}
	for _, d := range observed {
		if m, ok := r.Observed[d.Name]; ok {
			fmt.Fprintf(f, "   %-28s %16.6g %-8s n=%-7d observed, no bound\n", d.Name, m.Value, m.Unit, m.N)
		}
	}
	fmt.Fprintf(f, "   %-28s %16.6g %-8s n=%-7d highest percentile with ≥ 10 samples beyond it\n",
		fmt.Sprintf("op_p%g_ms", r.TailPct), r.TailMs, "ms", r.Attempted-r.Failed)
}
