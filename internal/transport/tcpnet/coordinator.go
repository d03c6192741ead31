package tcpnet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cacqr/internal/transport"
)

// Coordinator runs distributed jobs as rank 0 across a set of worker
// processes. One Coordinator can run many jobs (serially or
// concurrently — each job gets its own listener and mesh).
//
// Each job's listener is bound on the loopback interface and its address
// is what the workers dial back for rank 0, so the workers must run on
// the coordinator's host.
type Coordinator struct {
	// Workers are the listen addresses of the worker processes; worker
	// i becomes rank i+1. Empty means single-process jobs (np = 1).
	Workers []string
}

const (
	// meshBind is where a job listens for the workers' mesh connections
	// back to rank 0: loopback, on a port of the kernel's choosing.
	meshBind = "127.0.0.1:0"
	// dialTimeout bounds worker dials and mesh formation when the job
	// context carries no deadline.
	dialTimeout = 10 * time.Second
)

// NP returns the number of ranks a job will run on.
func (c *Coordinator) NP() int { return 1 + len(c.Workers) }

// Run executes one distributed job: body runs as rank 0 in this
// process, and each worker runs its registered handler with
// payload(rank) as input. It returns the aggregated statistics of all
// ranks — counters measured, not modeled. ctx's deadline becomes the
// job deadline on every rank; cancellation aborts every rank promptly.
// payload may be nil when workers need no per-rank input.
func (c *Coordinator) Run(ctx context.Context, payload func(rank int) []byte, body func(p transport.Proc) error) (*transport.Stats, error) {
	np := c.NP()
	deadline, _ := ctx.Deadline()

	jobID, err := newJobID()
	if err != nil {
		return nil, err
	}
	n := newNode(0, np, deadline)
	ctrls := make([]net.Conn, np) // ctrls[0] unused

	if np > 1 {
		ln, lerr := net.Listen("tcp", meshBind)
		if lerr != nil {
			return nil, fmt.Errorf("tcpnet: coordinator listen: %w", lerr)
		}
		defer ln.Close()
		addrs := append([]string{ln.Addr().String()}, c.Workers...)

		bucket := newMeshBucket()
		go acceptMesh(ln, jobID, bucket)
		defer bucket.drain()

		// Submit the job to every worker before forming the mesh:
		// workers dial rank 0 (and each other) only after they have
		// their header.
		hdrDeadline := int64(0)
		if !deadline.IsZero() {
			hdrDeadline = deadline.UnixNano()
		}
		for r := 1; r < np; r++ {
			conn, derr := net.DialTimeout("tcp", c.Workers[r-1], dialTimeout)
			if derr != nil {
				closeAll(ctrls)
				return nil, fmt.Errorf("tcpnet: dialing worker %s: %w", c.Workers[r-1], derr)
			}
			var blob []byte
			if payload != nil {
				blob = payload(r)
			}
			conn.SetWriteDeadline(time.Now().Add(dialTimeout))
			if _, werr := conn.Write([]byte{preambleCtrl}); werr == nil {
				err = writeJSONFrame(conn, jobHeader{
					JobID: jobID, NP: np, Rank: r, Addrs: addrs,
					Deadline: hdrDeadline, Payload: blob,
				})
			} else {
				err = werr
			}
			conn.SetWriteDeadline(time.Time{})
			if err != nil {
				conn.Close()
				closeAll(ctrls)
				return nil, fmt.Errorf("tcpnet: submitting to worker %s: %w", c.Workers[r-1], err)
			}
			ctrls[r] = conn
		}

		// Rank 0 dials no one; every worker dials us.
		bootDeadline := deadline
		if bootDeadline.IsZero() {
			bootDeadline = time.Now().Add(dialTimeout)
		}
		for r := 1; r < np; r++ {
			conn, terr := bucket.take(r, bootDeadline)
			if terr != nil {
				closeAll(ctrls)
				n.fail(terr)
				n.shutdown()
				return nil, terr
			}
			n.attach(r, conn)
		}
		n.start()
	}

	// abort tears the job down from the coordinator side: fail the
	// local node and drop the control connections, which trips every
	// worker's coordinator monitor.
	var abortOnce sync.Once
	abort := func(cause error) {
		abortOnce.Do(func() {
			n.fail(cause)
			closeAll(ctrls)
		})
	}

	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			abort(ctx.Err())
		case <-watchDone:
		}
	}()

	// Collect worker results as they arrive; a worker error or a
	// dropped worker aborts the rest of the job immediately.
	results := make([]jobResult, np)
	workerErrs := make([]error, np)
	var collectors sync.WaitGroup
	for r := 1; r < np; r++ {
		collectors.Add(1)
		go func(r int) {
			defer collectors.Done()
			var res jobResult
			if rerr := readJSONFrame(ctrls[r], &res); rerr != nil {
				workerErrs[r] = fmt.Errorf("tcpnet: worker %s (rank %d) vanished: %w", c.Workers[r-1], r, rerr)
				abort(workerErrs[r])
				return
			}
			if res.Err != "" {
				workerErrs[r] = fmt.Errorf("tcpnet: rank %d: %s", r, res.Err)
				abort(workerErrs[r])
			}
			results[r] = res
		}(r)
	}

	p := newProc(n)
	bodyErr := runBody(func() error { return body(p) })
	n.shutdown()
	if bodyErr != nil {
		abort(bodyErr)
	}
	collectors.Wait()
	closeAll(ctrls)

	st := &transport.Stats{PerRank: make([]transport.Counters, np)}
	st.PerRank[0] = p.Counters()
	st.Accumulate(st.PerRank[0])
	st.MergePhases(p.Phases())
	for r := 1; r < np; r++ {
		st.PerRank[r] = results[r].Counters
		st.Accumulate(st.PerRank[r])
		st.MergePhases(results[r].Phases)
	}

	if ctxErr := ctx.Err(); ctxErr != nil {
		return st, ctxErr
	}
	if bodyErr != nil {
		return st, bodyErr
	}
	for r := 1; r < np; r++ {
		if workerErrs[r] != nil {
			return st, workerErrs[r]
		}
	}
	return st, nil
}

// acceptMesh feeds a coordinator listener's incoming mesh connections
// into the job's bucket (ignoring anything that is not a mesh hello for
// this job).
func acceptMesh(ln net.Listener, jobID string, bucket *meshBucket) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
			var pre [1]byte
			if _, err := io.ReadFull(conn, pre[:]); err != nil || pre[0] != preambleMesh {
				conn.Close()
				return
			}
			var hello meshHello
			if err := readJSONFrame(conn, &hello); err != nil || hello.JobID != jobID {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			bucket.offer(hello.Rank, conn)
		}(conn)
	}
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// newJobID produces a collision-resistant job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("tcpnet: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
