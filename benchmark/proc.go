package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// env is what every workload's set-up receives: the seed its inputs
// derive from, where it may write, and how hard to run.
type env struct {
	ctx   context.Context
	seed  int64
	quick bool   // smoke sizes: fewest repetitions that still touch every path
	root  string // module root (the checkout)
	tmp   string // scratch under benchmark/out, removed on exit

	cacqrd string  // built daemon binary ("" until buildDaemon)
	buildS float64 // go build ./cmd/cacqrd wall time
}

// moduleRoot walks up from the working directory to the go.mod that
// names this module; the benchmark reads and writes only below it.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("locating module root: %w", err)
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if len(data) >= 12 && string(data[:12]) == "module cacqr" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module cacqr above the working directory: run from a full checkout")
		}
		dir = parent
	}
}

// newEnv creates the run's scratch directory under benchmark/out.
func newEnv(ctx context.Context, seed int64, quick bool) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", out, err)
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	return &env{ctx: ctx, seed: seed, quick: quick, root: root, tmp: tmp}, nil
}

// outDir is where results.json and the span files go.
func (e *env) outDir() string { return filepath.Join(e.root, "benchmark", "out") }

// close removes the scratch directory (panel files, built binary).
func (e *env) close() { os.RemoveAll(e.tmp) }

// buildDaemon compiles cmd/cacqrd once per run. The build is not part
// of any workload's set-up time; it is reported as bench.build_s.
func (e *env) buildDaemon() error {
	if e.cacqrd != "" {
		return nil
	}
	bin := filepath.Join(e.tmp, "cacqrd")
	start := time.Now()
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin, "./cmd/cacqrd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/cacqrd: %w\n%s", err, out)
	}
	e.cacqrd, e.buildS = bin, time.Since(start).Seconds()
	return nil
}

// freePort finds a loopback port by binding :0 and releasing it. The
// port can be taken again before the daemon binds it, so callers retry.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("probing for a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// listeners opens n loopback listeners on kernel-chosen ports. They are
// handed to the in-process workers as they are, so no port is ever
// released and raced for.
func listeners(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, nil, fmt.Errorf("opening worker listener %d: %w", i, err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// daemon is one cacqrd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startDaemon launches cacqrd on a free loopback port and waits for
// /healthz. A lost port race or a slow start is retried on a new port.
func (e *env) startDaemon(client *http.Client, extra ...string) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args := append([]string{"-addr", addr, "-procs", "8", "-quiet"}, extra...)
		cmd := exec.CommandContext(e.ctx, e.cacqrd, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting cacqrd: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr}
		if last = d.waitHealthy(e.ctx, client, 10*time.Second); last == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("cacqrd did not come up: %w", last)
}

// waitHealthy polls /healthz until it answers 200 or the deadline
// passes; a daemon that lost its port never answers and times out.
func (d *daemon) waitHealthy(ctx context.Context, client *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var last error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
		last = err
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("no healthy /healthz within %s: %w", limit, last)
}

// stop kills the daemon and waits until the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	d.cmd.Wait()         //nolint:errcheck // a killed process reports its signal
}
