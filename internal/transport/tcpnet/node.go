package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// ErrDeadline is returned by blocking operations once the job deadline
// has passed.
var ErrDeadline = errors.New("tcpnet: job deadline exceeded")

// node is one rank's end of the full mesh: the per-peer connections,
// the mailbox incoming frames demultiplex into, and the wire-byte
// counter. It is shared by the rank goroutine, the per-peer reader and
// writer goroutines, and whoever triggers failure (control-connection
// monitor, context watcher, the deadline timer).
type node struct {
	rank     int
	np       int
	deadline time.Time // zero = none

	box   *transport.Mailbox
	timer *time.Timer // fails the node at the deadline; nil without one

	// The job's recycled payloads, one list for both directions: Send
	// copies an operand into one and the peer's writer puts it back once
	// written; a reader fills one and the rank's Recv into a destination
	// puts it back. The list is the node's and goes with it.
	words transport.FreeList[float64]

	mu    sync.Mutex
	peers []*peerConn // indexed by rank; nil at self

	bytes    atomic.Int64 // raw bytes sent + received on mesh conns
	failOnce sync.Once
	writers  sync.WaitGroup
}

// peerConn is one mesh connection with an asynchronous writer, giving
// Send the buffered (enqueue-and-return) semantics the Comm contract
// requires even over a synchronous byte stream.
type peerConn struct {
	conn net.Conn
	out  chan transport.Message
}

// outboundDepth is the per-peer queue of messages awaiting the
// writer. Enqueueing blocks when it is full — natural backpressure —
// and the writer's deadline guarantees the block is bounded.
const outboundDepth = 256

// newNode starts the job's one deadline timer: past the deadline every
// pending and later operation fails with ErrDeadline. shutdown stops it.
func newNode(rank, np int, deadline time.Time) *node {
	n := &node{rank: rank, np: np, deadline: deadline, box: transport.NewMailbox(), peers: make([]*peerConn, np)}
	if !deadline.IsZero() {
		n.timer = time.AfterFunc(time.Until(deadline), func() { n.fail(ErrDeadline) })
	}
	return n
}

// attach records a mesh connection to peer rank r. The reader and
// writer goroutines start in start(), once the whole mesh is wired —
// fail() may run concurrently with bootstrap (a peer dies while we are
// still dialing the rest), so peers mutate only under the lock; a
// connection attached after fail took its snapshot sees the failed
// mailbox and closes itself.
func (n *node) attach(r int, conn net.Conn) {
	pc := &peerConn{conn: conn, out: make(chan transport.Message, outboundDepth)}
	n.mu.Lock()
	n.peers[r] = pc
	n.mu.Unlock()
	if n.box.Err() != nil {
		conn.Close()
	}
}

// start launches the reader and writer goroutines of every attached
// peer.
func (n *node) start() {
	n.mu.Lock()
	peers := append([]*peerConn(nil), n.peers...)
	n.mu.Unlock()
	for _, pc := range peers {
		if pc == nil {
			continue
		}
		n.writers.Add(1)
		go n.writeLoop(pc)
		go n.readLoop(pc)
	}
}

// writeLoop puts each frame on the wire in one writev (drained unwritten
// once the node has failed) and its payload back on the free list.
func (n *node) writeLoop(pc *peerConn) {
	defer n.writers.Done()
	var hdr [meshFrameHeader]byte
	var iov [2][]byte
	var bufs net.Buffers
	for m := range pc.out {
		if n.box.Err() == nil {
			if !n.deadline.IsZero() {
				pc.conn.SetWriteDeadline(n.deadline)
			}
			hdr = meshHeader(m.Comm, m.Src, m.Tag, len(m.Data))
			iov = [2][]byte{hdr[:], lin.HostBytes(m.Data)}
			bufs = iov[:]
			wrote, err := bufs.WriteTo(pc.conn)
			n.bytes.Add(wrote)
			if err != nil {
				n.fail(fmt.Errorf("tcpnet: write to peer: %w", err))
			}
		}
		n.words.Put(m.Data)
	}
}

func (n *node) readLoop(pc *peerConn) {
	for {
		msg, wire, err := readMeshFrame(pc.conn, &n.words)
		if err != nil {
			// EOF (and its local mirror, reading a conn we closed
			// ourselves) means the peer finished and shut down its
			// mesh — benign, everything it sent was delivered first.
			// Anything else is a failed peer.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.fail(fmt.Errorf("tcpnet: read from peer: %w", err))
			}
			return
		}
		n.bytes.Add(wire)
		_ = n.box.Post(msg) // a failed node drops what still arrives
	}
}

// fail marks the node failed with err: all pending and future
// operations return it, and the mesh connections are closed to unblock
// in-flight reads and writes.
func (n *node) fail(err error) {
	n.failOnce.Do(func() {
		n.box.Fail(err)
		n.mu.Lock()
		peers := append([]*peerConn(nil), n.peers...)
		n.mu.Unlock()
		for _, pc := range peers {
			if pc != nil {
				pc.conn.Close()
			}
		}
	})
}

// shutdown flushes every queued outbound frame, then closes the mesh
// connections. Called after the rank body returns: its final sends may
// still be queued, and peers mid-collective are waiting on them.
func (n *node) shutdown() {
	if n.timer != nil {
		n.timer.Stop()
	}
	for _, pc := range n.peers {
		if pc != nil {
			close(pc.out)
		}
	}
	n.writers.Wait()
	for _, pc := range n.peers {
		if pc != nil {
			pc.conn.Close()
		}
	}
}

// proc is the rank's transport.Proc and, under the shared communicator,
// its transport.Link. Msgs/Words are the traffic that went through the
// Comm — point-to-point as charged, collectives as moved — Flops what
// the algorithm charged, Bytes measured wire traffic, Time wall-clock
// seconds since the node came up.
type proc struct {
	transport.Ledger
	n     *node
	world transport.Comm
	start time.Time
}

func newProc(n *node) *proc {
	p := &proc{n: n, start: time.Now()}
	p.world = transport.NewWorld(p, p)
	return p
}

func (p *proc) Rank() int             { return p.n.rank }
func (p *proc) Size() int             { return p.n.np }
func (p *proc) World() transport.Comm { return p.world }

// Compute counts local flops. It also surfaces node failure, so
// compute-bound loops notice a dead peer or a cancellation promptly.
func (p *proc) Compute(flops int64) error {
	if err := p.n.box.Err(); err != nil {
		return err
	}
	p.ChargeFlops(flops)
	return nil
}

func (p *proc) Counters() transport.Counters {
	c := p.Ledger.Counters()
	c.Bytes = p.n.bytes.Load()
	c.Time = time.Since(p.start).Seconds()
	return c
}

// Send copies data once into a buffer from the node's free list and
// enqueues it on global rank dst's writer (buffered semantics; a send to
// self posts the copy straight to the mailbox).
func (p *proc) Send(comm uint64, dst, tag int, data []float64) error {
	n := p.n
	if err := n.box.Err(); err != nil {
		return err
	}
	m := transport.Message{Comm: comm, Src: n.rank, Tag: tag, Data: n.words.Copy(data)}
	if dst == n.rank {
		return n.box.Post(m)
	}
	n.peers[dst].out <- m
	return nil
}

// Recv waits in the mailbox, which the deadline timer fails. A payload
// that fits dst is copied there and its buffer goes back to the node's
// free list; otherwise the buffer is the caller's.
func (p *proc) Recv(comm uint64, src, tag int, dst []float64) ([]float64, error) {
	m, err := p.n.box.Take(comm, src, tag)
	if err != nil || dst == nil || len(m.Data) > len(dst) {
		return m.Data, err
	}
	k := copy(dst, m.Data)
	p.n.words.Put(m.Data)
	return dst[:k], nil
}

// ChargeCollective charges what moved: measured traffic, not a model.
func (p *proc) ChargeCollective(_ transport.Op, _ int, _ int64, moved transport.Counters) {
	p.ChargeComm(moved.Msgs, moved.Words)
}
