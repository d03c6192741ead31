package tcpnet_test

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cacqr/internal/transport"
	"cacqr/internal/transport/conformancetest"
	"cacqr/internal/transport/tcpnet"
)

// startWorkers brings up n in-process workers on loopback listeners,
// each running body for every rank it is handed and reporting its error
// against sentinels. The returned stop function closes the listeners.
func startWorkers(t *testing.T, n int, h tcpnet.Handler, sentinels ...error) (addrs []string, stop func()) {
	t.Helper()
	var lns []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		go tcpnet.Serve(ln, h, sentinels...)
	}
	return addrs, func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
}

// TestTransportConformance runs the backend-independent transport
// contract over real TCP connections between in-process workers.
func TestTransportConformance(t *testing.T) {
	conformancetest.Run(t, func(np int, timeout time.Duration, body func(p transport.Proc) error) (*transport.Stats, error) {
		addrs, stop := startWorkers(t, np-1, func(p transport.Proc, payload []byte) error {
			return body(p)
		})
		defer stop()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		coord := &tcpnet.Coordinator{Workers: addrs}
		return coord.Run(ctx, nil, body)
	})
}

func TestSingleProcessJob(t *testing.T) {
	coord := &tcpnet.Coordinator{}
	st, err := coord.Run(context.Background(), nil, func(p transport.Proc) error {
		if p.Size() != 1 || p.Rank() != 0 {
			return fmt.Errorf("unexpected shape: rank %d of %d", p.Rank(), p.Size())
		}
		got, err := p.World().Allreduce([]float64{7})
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != 7 {
			return fmt.Errorf("allreduce of one: %v", got)
		}
		return p.Compute(5)
	})
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if st.MaxFlops != 5 {
		t.Errorf("MaxFlops = %d, want 5", st.MaxFlops)
	}
}

func TestPing(t *testing.T) {
	addrs, stop := startWorkers(t, 1, func(p transport.Proc, payload []byte) error { return nil })
	defer stop()
	if err := tcpnet.Ping(addrs[0], 2*time.Second); err != nil {
		t.Fatalf("ping live worker: %v", err)
	}
	stop()
	if err := tcpnet.Ping(addrs[0], 500*time.Millisecond); err == nil {
		t.Fatalf("ping of closed worker succeeded")
	}
}

func TestPayloadDelivery(t *testing.T) {
	addrs, stop := startWorkers(t, 2, func(p transport.Proc, payload []byte) error {
		want := fmt.Sprintf("payload-for-%d", p.Rank())
		if string(payload) != want {
			return fmt.Errorf("rank %d got payload %q, want %q", p.Rank(), payload, want)
		}
		return nil
	})
	defer stop()
	coord := &tcpnet.Coordinator{Workers: addrs}
	_, err := coord.Run(context.Background(),
		func(rank int) []byte { return []byte(fmt.Sprintf("payload-for-%d", rank)) },
		func(p transport.Proc) error { return nil })
	if err != nil {
		t.Fatalf("payload run: %v", err)
	}
}

// A worker's error crosses the control connection as text. The
// sentinels both ends list survive the crossing, so when a worker's
// report aborts rank 0 before rank 0 fails by itself, errors.Is still
// answers as it would on the worker; a sentinel neither end lists does
// not come back.
func TestWorkerSentinelsSurviveTheWire(t *testing.T) {
	listed, wrapped, unlisted := errors.New("listed"), errors.New("wrapped"), errors.New("unlisted")
	sentinels := []error{listed, wrapped}
	addrs, stop := startWorkers(t, 3, func(p transport.Proc, _ []byte) error {
		return fmt.Errorf("rank %d gave up: %w: %w", p.Rank(), wrapped, unlisted)
	}, sentinels...)
	defer stop()
	coord := &tcpnet.Coordinator{Workers: addrs, Sentinels: sentinels}
	_, err := coord.Run(context.Background(), nil, func(p transport.Proc) error {
		// Nothing is ever sent on this tag: only a worker's report can
		// free the receive.
		_, err := p.World().Recv(1, 42)
		return err
	})
	if !errors.Is(err, wrapped) || errors.Is(err, listed) || errors.Is(err, unlisted) {
		t.Fatalf("run returned %v: want it to wrap %q alone of the three", err, wrapped)
	}
	if !strings.Contains(err.Error(), "gave up: wrapped: unlisted") {
		t.Errorf("run returned %q, want the worker's text", err)
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	addrs, stop := startWorkers(t, 1, func(p transport.Proc, payload []byte) error {
		// Block in a recv that will never match; only abort can free it.
		_, err := p.World().Recv(0, 42)
		return err
	})
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	coord := &tcpnet.Coordinator{Workers: addrs}
	start := time.Now()
	_, err := coord.Run(ctx, nil, func(p transport.Proc) error {
		// Also stuck in an unmatchable recv; cancellation must free it.
		_, rerr := p.World().Recv(0, 41)
		return rerr
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestBytesCountersPopulated(t *testing.T) {
	addrs, stop := startWorkers(t, 2, func(p transport.Proc, payload []byte) error {
		_, err := p.World().Allreduce(make([]float64, 256))
		return err
	})
	defer stop()
	coord := &tcpnet.Coordinator{Workers: addrs}
	st, err := coord.Run(context.Background(), nil, func(p transport.Proc) error {
		_, err := p.World().Allreduce(make([]float64, 256))
		return err
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Every rank moved at least its 256-element vector over the wire.
	for r, c := range st.PerRank {
		if c.Bytes < 256*8 {
			t.Errorf("rank %d Bytes = %d, want >= %d", r, c.Bytes, 256*8)
		}
	}
	if st.TotalBytes < 3*256*8 {
		t.Errorf("TotalBytes = %d", st.TotalBytes)
	}
}

func TestWorkerErrorReported(t *testing.T) {
	addrs, stop := startWorkers(t, 1, func(p transport.Proc, payload []byte) error {
		return errors.New("synthetic worker explosion")
	})
	defer stop()
	coord := &tcpnet.Coordinator{Workers: addrs}
	_, err := coord.Run(context.Background(), nil, func(p transport.Proc) error {
		// Rank 0 waits on the worker; the abort must free it.
		_, rerr := p.World().Recv(1, 3)
		return rerr
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic worker explosion") {
		t.Fatalf("worker error not surfaced: %v", err)
	}
}
