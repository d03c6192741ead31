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
// taken in the order they were posted.
type Mailbox struct {
	mu    sync.Mutex
	cond  sync.Cond
	queue []Message
	err   error
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	b := &Mailbox{}
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
	b.queue = append(b.queue, m)
	b.cond.Broadcast()
	return nil
}

// Take blocks until a message from global rank src with the given
// communicator and tag is queued, and dequeues the oldest such message.
func (b *Mailbox) Take(comm uint64, src, tag int) (Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.err != nil {
			return Message{}, b.err
		}
		for i, m := range b.queue {
			if m.Comm == comm && m.Src == src && m.Tag == tag {
				last := len(b.queue) - 1
				copy(b.queue[i:], b.queue[i+1:])
				// The vacated slot would keep the delivered payload
				// reachable after its receiver has dropped it.
				b.queue[last] = Message{}
				b.queue = b.queue[:last]
				return m, nil
			}
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
