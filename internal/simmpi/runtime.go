package simmpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cacqr/internal/transport"
)

// CostParams are the α-β-γ machine parameters used by the virtual clock.
// Alpha is seconds per message, Beta seconds per 8-byte word, Gamma seconds
// per floating point operation.
type CostParams struct {
	Alpha float64
	Beta  float64
	Gamma float64
}

// DefaultCost is a generic machine with α ≫ β ≫ γ, reflecting the paper's
// assumption about current architectures.
var DefaultCost = CostParams{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-11}

// Options configure a run.
type Options struct {
	// Cost sets the virtual-clock machine parameters. Zero value means
	// DefaultCost.
	Cost CostParams
	// Timeout aborts the run if wall-clock time exceeds it (guards tests
	// against deadlock). Zero means no watchdog.
	Timeout time.Duration
	// Cancel, when non-nil, aborts the run as soon as the channel is
	// closed — how a context cancellation (an HTTP client disconnect, a
	// deadline) reaches into an in-flight simulated run. The run
	// returns ErrCanceled.
	Cancel <-chan struct{}
	// FailRank, when FailEnabled, makes rank FailRank return an injected
	// error the first time it calls Compute, exercising abort paths.
	FailEnabled bool
	FailRank    int
}

// ErrAborted is returned by communication calls on surviving ranks after
// another rank has failed.
var ErrAborted = errors.New("simmpi: run aborted")

// ErrTimeout is returned when the watchdog fires before all ranks finish.
var ErrTimeout = errors.New("simmpi: watchdog timeout (likely deadlock)")

// ErrCanceled is returned when Options.Cancel fires before all ranks
// finish.
var ErrCanceled = errors.New("simmpi: run canceled")

// ErrInjectedFailure is the error produced by Options.FailEnabled.
var ErrInjectedFailure = errors.New("simmpi: injected rank failure")

// Stats summarizes a completed run. It is the backend-independent
// transport.Stats: for the simulated runtime, Time is virtual seconds
// and Msgs/Words/Flops are exact α-β-γ cost units (Bytes stays 0 — no
// real bytes move between goroutine ranks).
type Stats = transport.Stats

// Counters are one rank's accumulated cost measures (the
// backend-independent transport.Counters).
type Counters = transport.Counters

// rt is the shared state of one Run invocation.
type rt struct {
	p     int
	cost  CostParams
	boxes []*transport.Mailbox // indexed by global rank
	// wire recycles message buffers between the run's sends and
	// receives. It is the run's: nothing outlives RunWithOptions.
	wire transport.FreeList[float64]

	abortOnce sync.Once
	abortErr  error
}

func (r *rt) abort(err error) {
	r.abortOnce.Do(func() {
		r.abortErr = err
		for _, b := range r.boxes {
			b.Fail(ErrAborted)
		}
	})
}

// Proc is the handle a rank's body uses for all communication and cost
// accounting. It is not safe for concurrent use by multiple goroutines.
// The embedded Ledger holds the msgs/words/flops counters and the
// SetPhase breakdown; Proc adds the virtual clock on top.
type Proc struct {
	transport.Ledger
	rank int
	rt   *rt

	clock    float64
	failArm  bool
	world    transport.Comm
	failErr  error
	finished bool
}

// Rank returns this process's global rank in [0, P).
func (p *Proc) Rank() int { return p.rank }

// Size returns the total number of ranks in the run.
func (p *Proc) Size() int { return p.rt.p }

// World returns the communicator containing every rank.
func (p *Proc) World() transport.Comm { return p.world }

// Clock returns the rank's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Counters returns a snapshot of the rank's cost counters.
func (p *Proc) Counters() Counters {
	c := p.Ledger.Counters()
	c.Time = p.clock
	return c
}

// ChargeComm charges communication cost to the virtual clock and the
// per-rank counters: alphaUnits message latencies and words words moved.
// Collectives are charged exactly the butterfly-schedule formulas of
// the paper's §II-B through it (link.ChargeCollective), so the Msgs and
// Words counters are per-processor α and β cost units in the paper's
// sense.
func (p *Proc) ChargeComm(alphaUnits, words int64) {
	p.Ledger.ChargeComm(alphaUnits, words)
	p.clock += float64(alphaUnits)*p.rt.cost.Alpha + float64(words)*p.rt.cost.Beta
}

// Compute charges flops floating point operations to the virtual clock.
// It is how algorithms account for local BLAS-style work. It returns an
// injected failure when the run was configured with one (tests of abort
// paths); production algorithms propagate the error.
func (p *Proc) Compute(flops int64) error {
	if p.failArm {
		p.failArm = false
		p.failErr = fmt.Errorf("%w (rank %d)", ErrInjectedFailure, p.rank)
		return p.failErr
	}
	p.ChargeFlops(flops)
	p.clock += float64(flops) * p.rt.cost.Gamma
	return nil
}

// Run executes body on p ranks with default options and returns run
// statistics. The first error returned by any body aborts the run and is
// returned.
func Run(p int, body func(*Proc) error) (*Stats, error) {
	return RunWithOptions(p, Options{}, body)
}

// RunWithOptions executes body on p ranks under the given options.
func RunWithOptions(np int, opts Options, body func(*Proc) error) (*Stats, error) {
	if np <= 0 {
		return nil, fmt.Errorf("simmpi: invalid rank count %d", np)
	}
	cost := opts.Cost
	if cost == (CostParams{}) {
		cost = DefaultCost
	}
	r := &rt{p: np, cost: cost, boxes: make([]*transport.Mailbox, np)}
	for i := range r.boxes {
		r.boxes[i] = transport.NewMailbox()
	}

	procs := make([]*Proc, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)

	for i := 0; i < np; i++ {
		pr := &Proc{rank: i, rt: r}
		pr.world = transport.NewWorld(pr, link{pr})
		if opts.FailEnabled && opts.FailRank == i {
			pr.failArm = true
		}
		procs[i] = pr
		go func(pr *Proc) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					buf := make([]byte, 4096)
					n := runtime.Stack(buf, false)
					errs[pr.rank] = fmt.Errorf("simmpi: rank %d panicked: %v\n%s", pr.rank, rec, buf[:n])
					r.abort(errs[pr.rank])
				}
				pr.finished = true
			}()
			if err := body(pr); err != nil {
				errs[pr.rank] = err
				r.abort(err)
			}
		}(pr)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var watchdog <-chan time.Time
	if opts.Timeout > 0 {
		t := time.NewTimer(opts.Timeout)
		defer t.Stop()
		watchdog = t.C
	}
	select {
	case <-done:
	case <-watchdog:
		r.abort(ErrTimeout)
		<-done
	case <-opts.Cancel:
		r.abort(ErrCanceled)
		<-done
	}

	// The abort cause is the root error; ranks that merely observed the
	// abort report ErrAborted, which would mask it.
	firstErr := r.abortErr
	if firstErr == nil {
		for _, e := range errs {
			if e != nil {
				firstErr = e
				break
			}
		}
	}

	st := &Stats{PerRank: make([]Counters, np)}
	for i, pr := range procs {
		st.PerRank[i] = pr.Counters()
		st.Accumulate(st.PerRank[i])
		st.MergePhases(pr.Phases())
	}
	if firstErr != nil {
		return st, firstErr
	}
	return st, nil
}
