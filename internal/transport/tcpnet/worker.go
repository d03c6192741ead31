package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cacqr/internal/transport"
)

// Handler runs one rank's share of a job. payload is the opaque blob
// the coordinator attached for this rank (job spec + input block in the
// root package's encoding). The handler's error is reported back to the
// coordinator verbatim.
type Handler func(p transport.Proc, payload []byte) error

// handshakeTimeout bounds how long a freshly accepted connection may
// take to identify itself, and how long mesh formation may wait for
// jobs with no deadline.
const handshakeTimeout = 30 * time.Second

// meshBucket parks mesh connections for one job until the participant
// that owns them claims each peer rank. Mesh dials race the control
// header, so either side may arrive first.
type meshBucket struct {
	mu    sync.Mutex
	cond  *sync.Cond
	conns map[int]net.Conn // dialing rank → connection
}

func newMeshBucket() *meshBucket {
	b := &meshBucket{conns: make(map[int]net.Conn)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *meshBucket) offer(rank int, conn net.Conn) {
	b.mu.Lock()
	if old, ok := b.conns[rank]; ok {
		old.Close() // duplicate hello; keep the newest
	}
	b.conns[rank] = conn
	b.cond.Broadcast()
	b.mu.Unlock()
}

// take blocks until the connection dialed by rank arrives, or the
// deadline passes.
func (b *meshBucket) take(rank int, deadline time.Time) (net.Conn, error) {
	var timedOut atomic.Bool
	d := time.Until(deadline)
	if d <= 0 {
		return nil, ErrDeadline
	}
	t := time.AfterFunc(d, func() {
		timedOut.Store(true)
		b.cond.Broadcast()
	})
	defer t.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if conn, ok := b.conns[rank]; ok {
			delete(b.conns, rank)
			return conn, nil
		}
		if timedOut.Load() {
			return nil, fmt.Errorf("tcpnet: mesh connection from rank %d never arrived: %w", rank, ErrDeadline)
		}
		b.cond.Wait()
	}
}

// drain closes any unclaimed connections.
func (b *meshBucket) drain() {
	b.mu.Lock()
	for r, conn := range b.conns {
		conn.Close()
		delete(b.conns, r)
	}
	b.mu.Unlock()
}

// meshRegistry routes incoming mesh connections to their job's bucket,
// creating the bucket on demand (the mesh conn may beat the control
// header, or vice versa).
type meshRegistry struct {
	mu      sync.Mutex
	buckets map[string]*meshBucket
}

func newMeshRegistry() *meshRegistry {
	return &meshRegistry{buckets: make(map[string]*meshBucket)}
}

func (r *meshRegistry) bucket(jobID string) *meshBucket {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.buckets[jobID]
	if !ok {
		b = newMeshBucket()
		r.buckets[jobID] = b
	}
	return b
}

func (r *meshRegistry) drop(jobID string) {
	r.mu.Lock()
	b := r.buckets[jobID]
	delete(r.buckets, jobID)
	r.mu.Unlock()
	if b != nil {
		b.drain()
	}
}

// Serve accepts connections on ln and runs jobs with h until the
// listener is closed. Each control connection runs one job; jobs run
// concurrently if a coordinator (or several) submits them. This is the
// body of a `cacqrd worker` process.
func Serve(ln net.Listener, h Handler) error {
	reg := newMeshRegistry()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveConn(conn, reg, h)
	}
}

// serveConn dispatches one accepted connection by preamble.
func serveConn(conn net.Conn, reg *meshRegistry, h Handler) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var pre [1]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		conn.Close()
		return
	}
	switch pre[0] {
	case preamblePing:
		conn.Write([]byte{pingAck})
		conn.Close()
	case preambleMesh:
		var hello meshHello
		if err := readJSONFrame(conn, &hello); err != nil {
			conn.Close()
			return
		}
		conn.SetReadDeadline(time.Time{})
		reg.bucket(hello.JobID).offer(hello.Rank, conn)
	default:
		var hdr jobHeader
		if _, ctrl := ctrlFormats[pre[0]]; !ctrl || readJSONFrame(conn, &hdr) != nil {
			conn.Close()
			return
		}
		conn.SetReadDeadline(time.Time{})
		runWorkerJob(conn, reg, h, pre[0], hdr)
	}
}

// runWorkerJob executes one job on this worker: check that the
// coordinator speaks this worker's frame format, form the mesh, run the
// handler, report counters and error on the control connection.
func runWorkerJob(ctrl net.Conn, reg *meshRegistry, h Handler, pre byte, hdr jobHeader) {
	defer ctrl.Close()
	defer reg.drop(hdr.JobID)

	var deadline time.Time
	if hdr.Deadline != 0 {
		deadline = time.Unix(0, hdr.Deadline)
	}
	report := func(res jobResult) {
		ctrl.SetWriteDeadline(time.Now().Add(handshakeTimeout))
		writeJSONFrame(ctrl, res)
	}
	if pre != preambleCtrl {
		report(jobResult{Err: fmt.Sprintf("tcpnet: coordinator speaks %s (control preamble %q), this worker %s (%q): run one release on both",
			ctrlFormats[pre], pre, ctrlFormats[preambleCtrl], preambleCtrl)})
		return
	}
	if hdr.Rank <= 0 || hdr.Rank >= hdr.NP || len(hdr.Addrs) != hdr.NP {
		report(jobResult{Err: fmt.Sprintf("tcpnet: malformed job header (rank %d, np %d, %d addrs)", hdr.Rank, hdr.NP, len(hdr.Addrs))})
		return
	}

	n := newNode(hdr.Rank, hdr.NP, deadline)
	if err := buildMesh(n, hdr.JobID, hdr.Addrs, reg.bucket(hdr.JobID)); err != nil {
		n.fail(err)
		n.shutdown()
		report(jobResult{Err: err.Error()})
		return
	}

	// If the coordinator goes away mid-job (cancellation, crash), its
	// control connection drops; it never sends anything after the
	// header, so any read completion before we report means abort.
	monitorDone := make(chan struct{})
	go func() {
		var b [1]byte
		_, err := ctrl.Read(b[:])
		select {
		case <-monitorDone:
		default:
			n.fail(fmt.Errorf("tcpnet: coordinator connection lost: %w", err))
		}
	}()

	p := newProc(n)
	err := runBody(func() error { return h(p, hdr.Payload) })
	n.shutdown()
	close(monitorDone)

	res := jobResult{Counters: p.Counters(), Phases: p.Phases()}
	if err != nil {
		res.Err = err.Error()
	}
	report(res)
}

// runBody invokes a rank body, converting panics to errors so a bad job
// cannot take down the worker process.
func runBody(body func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("tcpnet: rank body panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	return body()
}

// buildMesh completes rank n.rank's connections: dial every lower rank,
// claim the parked connections from every higher rank.
func buildMesh(n *node, jobID string, addrs []string, bucket *meshBucket) error {
	bootDeadline := n.deadline
	if bootDeadline.IsZero() {
		bootDeadline = time.Now().Add(handshakeTimeout)
	}
	for j := 0; j < n.rank; j++ {
		conn, err := dialMesh(addrs[j], jobID, n.rank, bootDeadline)
		if err != nil {
			return fmt.Errorf("tcpnet: dialing rank %d at %s: %w", j, addrs[j], err)
		}
		n.attach(j, conn)
	}
	for j := n.rank + 1; j < n.np; j++ {
		conn, err := bucket.take(j, bootDeadline)
		if err != nil {
			return err
		}
		n.attach(j, conn)
	}
	n.start()
	return nil
}

// dialMesh opens a data-plane connection to a peer and identifies
// itself.
func dialMesh(addr, jobID string, rank int, deadline time.Time) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write([]byte{preambleMesh}); err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeJSONFrame(conn, meshHello{JobID: jobID, Rank: rank}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// Ping checks that a worker is listening at addr.
func Ping(addr string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte{preamblePing}); err != nil {
		return err
	}
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return err
	}
	if b[0] != pingAck {
		return fmt.Errorf("tcpnet: unexpected ping reply %q", b[0])
	}
	return nil
}
