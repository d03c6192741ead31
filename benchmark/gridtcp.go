package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"

	cacqr "cacqr"
	"cacqr/internal/obs"
	"cacqr/internal/transport"
	"cacqr/internal/transport/tcpnet"
)

// grid-tcp: the same algorithm over real sockets, rank 0 in this
// process and seven loopback workers.
var gridTCPShape = gridShape{m: 4096, n: 64, c: 2, d: 2}

var gridTCP = &workload{
	name:    wGridTCP,
	why:     "same algorithm as grid-sim through internal/transport/tcpnet (linear fans, per-job mesh set-up, gob payload): transport changes show here and nowhere else",
	clients: 1,
	stride:  1,
	warmups: 2,
	setup: func(e *env) (instance, error) {
		sh := gridTCPShape
		pool, err := serveWorkers(sh.procs()-1, cacqr.ServeWorker)
		if err != nil {
			return nil, err
		}
		return &gridTCPInst{
			gridInst: gridInst{
				sh:   sh,
				a:    wellConditioned(sh.m, sh.n, 10, e.seed),
				opts: cacqr.Options{Transport: cacqr.TCPTransport(pool.addrs...)},
			},
			workers: pool,
		}, nil
	},
}

// workerPool is a set of in-process rank servers on loopback listeners.
type workerPool struct {
	lns   []net.Listener
	addrs []string
	wg    sync.WaitGroup
}

// serveWorkers starts n listeners, each served by serve until closed.
func serveWorkers(n int, serve func(net.Listener) error) (*workerPool, error) {
	lns, addrs, err := listeners(n)
	if err != nil {
		return nil, err
	}
	p := &workerPool{lns: lns, addrs: addrs}
	for _, ln := range lns {
		p.wg.Add(1)
		go func(ln net.Listener) {
			defer p.wg.Done()
			serve(ln) //nolint:errcheck // returns once the listener is closed; a job's error reaches the coordinator
		}(ln)
	}
	return p, nil
}

// close shuts the listeners and waits for the serving goroutines.
func (p *workerPool) close() {
	closeAll(p.lns)
	p.wg.Wait()
}

type gridTCPInst struct {
	gridInst
	workers *workerPool
}

func (g *gridTCPInst) close() { g.workers.close() }

// Jobs the benchmark-owned tcpnet handlers run, named in the payload.
const (
	jobNoop   = "noop"   // mesh set-up and teardown only
	jobProbe  = "probe"  // the three collective probes
	jobStaged = "staged" // gridBody with barriers between stages
	jobPlain  = "plain"  // gridBody as the program runs it
)

// probeHandler is the worker side of the benchmark's own tcpnet jobs.
func (g *gridTCPInst) probeHandler(p transport.Proc, payload []byte) error {
	switch job := string(payload); job {
	case jobNoop:
		return nil
	case jobProbe:
		return collectives(p, nil, "tcpnet")
	case jobStaged:
		_, _, err := gridBody(p, g.sh, nil, barrierStage(p, nil, 0))
		return err
	case jobPlain:
		_, _, err := gridBody(p, g.sh, nil, plainStage)
		return err
	default:
		return fmt.Errorf("benchmark worker: unknown job %q", job)
	}
}

func (g *gridTCPInst) layers(t *traceRun) error {
	pool, err := serveWorkers(g.sh.procs()-1, func(ln net.Listener) error {
		return tcpnet.Serve(ln, g.probeHandler)
	})
	if err != nil {
		return err
	}
	defer pool.close()
	coord := &tcpnet.Coordinator{Workers: pool.addrs}
	// run executes one benchmark-owned job: body on rank 0 here, the
	// handler's branch for the same job name on the seven workers.
	run := func(span, job string, body func(p transport.Proc) error) error {
		return t.rec.timed(span, 0, func() error {
			_, err := coord.Run(t.e.ctx, func(int) []byte { return []byte(job) }, body)
			return err
		})
	}
	tr := obs.NewTracer(obs.TracerOptions{})
	global := asLin(g.a)
	err = t.each(5, func(int) error {
		t.rootOp()
		runtime.GC()
		err := t.rec.timed("root.sim_same_op", 0, func() error {
			_, err := cacqr.FactorizeOnGrid(g.a, g.sh.spec(), cacqr.Options{})
			return err
		})
		if err != nil {
			return err
		}
		if err := run("tcpnet.job_setup", jobNoop, func(transport.Proc) error { return nil }); err != nil {
			return err
		}
		err = run("replay.probe", jobProbe, func(p transport.Proc) error { return collectives(p, t.rec, "tcpnet") })
		if err != nil {
			return err
		}
		runtime.GC()
		replay := t.rec.begin("replay.grid", 0)
		err = run("replay.staged", jobStaged, func(p transport.Proc) error {
			_, _, err := gridBody(p, g.sh, global, barrierStage(p, t.rec, replay))
			return err
		})
		t.rec.end(replay)
		if err != nil {
			return err
		}
		runtime.GC()
		err = run("replay.obs_off", jobPlain, func(p transport.Proc) error {
			_, _, err := gridBody(p, g.sh, global, plainStage)
			return err
		})
		if err != nil {
			return err
		}
		runtime.GC()
		return run("replay.obs_on", jobPlain, func(p transport.Proc) error {
			// Only rank 0 is local; the workers' ranks are remote.
			ranks, finish := obsRanks(tr, 1)
			defer finish()
			_, _, err := gridBody(transport.Traced(p, ranks[0]), g.sh, global, plainStage)
			return err
		})
	})
	if err != nil {
		return err
	}
	n := len(t.rec.durations("replay.grid"))
	t.setMed("tcpnet.job_setup_s", "tcpnet.job_setup")
	for _, c := range []string{"allreduce", "bcast", "allgather"} {
		t.set("tcpnet."+c+"_s", t.rec.med("tcpnet."+c)/probeCalls, n*probeCalls)
	}
	t.set("tcpnet.msgs_per_proc", float64(g.stats.Msgs), 0)
	t.set("tcpnet.words_per_proc", float64(g.stats.Words), 0)
	t.set("tcpnet.wire_bytes_per_proc", float64(g.stats.Bytes), 0)
	sim := t.setMed("root.sim_same_op_s", "root.sim_same_op")
	t.set("root.tcp_over_sim_s", t.opP50()-sim, n)
	t.set("obs.trace_overhead_pct", overheadPct(t.rec, "replay.obs_off", "replay.obs_on"), n)
	return nil
}
