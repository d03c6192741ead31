package transport

import "sync"

// Message is one point-to-point payload between two global ranks,
// matched at the receiver by (Comm, Src, Tag).
type Message struct {
	Comm uint64 // communicator id
	Src  int    // global rank of the sender
	Tag  int
	Data []float64
	// Stamp is the sender's clock when the send began. Only the
	// simulator sets and reads it: a receiver's virtual clock may not
	// run ahead of it.
	Stamp float64
}

// Mailbox is one rank's incoming message queue: senders (or the
// readers of a mesh connection) Post, the rank's goroutine Takes, and
// whoever detects a failure — an aborted run, a dead peer, a deadline —
// Fails it, which wakes the rank and makes every later operation
// return that failure. Messages with the same (Comm, Src, Tag) are
// taken in the order they were posted: each such key has its own FIFO,
// so a Take looks at one queue's head and never scans or shifts the
// others, and a drained queue keeps its slots for the next message — a
// steady exchange posts and takes without allocating.
type Mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queues map[msgKey]*fifo
	err    error
}

// msgKey is what a Take matches on.
type msgKey struct {
	comm     uint64
	src, tag int
}

// fifo holds one key's pending messages in msgs[head:].
type fifo struct {
	msgs []Message
	head int
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	b := &Mailbox{queues: make(map[msgKey]*fifo)}
	b.cond.L = &b.mu
	return b
}

// Post enqueues m, or returns the failure of a failed mailbox.
func (b *Mailbox) Post(m Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	key := msgKey{m.Comm, m.Src, m.Tag}
	q := b.queues[key]
	if q == nil {
		q = &fifo{}
		b.queues[key] = q
	}
	if q.head > 0 && len(q.msgs) == cap(q.msgs) {
		// Full with taken slots in front: move the pending ones down
		// rather than grow past what is ever pending at once.
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, m)
	b.cond.Broadcast()
	return nil
}

// Take blocks until a message from global rank src with the given
// communicator and tag is queued, and dequeues the oldest such message.
func (b *Mailbox) Take(comm uint64, src, tag int) (Message, error) {
	key := msgKey{comm, src, tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.err != nil {
			return Message{}, b.err
		}
		if q := b.queues[key]; q != nil && q.head < len(q.msgs) {
			m := q.msgs[q.head]
			// The vacated slot would keep the delivered payload
			// reachable after its receiver has dropped it.
			q.msgs[q.head] = Message{}
			q.head++
			if q.head == len(q.msgs) {
				q.msgs, q.head = q.msgs[:0], 0
			}
			return m, nil
		}
		b.cond.Wait()
	}
}

// Fail makes every pending and later Post and Take return err. The
// first failure wins.
func (b *Mailbox) Fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Err reports the mailbox's failure, nil while it has none.
func (b *Mailbox) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}
