package simmpi

import (
	"fmt"
	"slices"
	"sort"

	"cacqr/internal/transport"
)

// Comm is an ordered group of ranks, analogous to an MPI communicator.
// Point-to-point operations address peers by their index within the
// communicator; collectives run over all members. Comm values are
// per-rank handles onto the same logical communicator, identified by an
// id used for message matching: the world is 0 and every member derives
// the same child id (transport.CommID) for the same Split/Subgroup call,
// so they agree on it without communication or shared state.
type Comm struct {
	proc  *Proc
	id    uint64
	ranks []int // global ranks of members, in communicator order
	index int   // this rank's position within ranks

	nsplits int // per-member count of child communicators created
}

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.ranks) }

// Index returns this rank's position within the communicator.
func (c *Comm) Index() int { return c.index }

// GlobalRank returns the global rank of member i.
func (c *Comm) GlobalRank(i int) int { return c.ranks[i] }

// Proc returns the owning process handle.
func (c *Comm) Proc() transport.Proc { return c.proc }

// Split partitions the communicator: members passing the same color form a
// new communicator, ordered by key (ties broken by parent index). Like
// MPI_Comm_split, it must be called by every member. Returns this rank's
// handle on its new communicator.
func (c *Comm) Split(color, key int) (transport.Comm, error) {
	// Exchange (color, key) among all members via an allgather so every
	// rank can compute every group deterministically. This mirrors how
	// MPI implementations realize split, and charges the proper cost.
	local := []float64{float64(color), float64(key), float64(c.index)}
	all, err := c.Allgather(local)
	if err != nil {
		return nil, err
	}
	type entry struct{ color, key, index int }
	entries := make([]entry, c.Size())
	for i := 0; i < c.Size(); i++ {
		entries[i] = entry{int(all[3*i]), int(all[3*i+1]), int(all[3*i+2])}
	}
	var group []entry
	for _, e := range entries {
		if e.color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].index < group[j].index
	})
	ranks := make([]int, len(group))
	idx := -1
	for i, e := range group {
		ranks[i] = c.ranks[e.index]
		if e.index == c.index {
			idx = i
		}
	}
	seq := c.nsplits
	c.nsplits++
	return &Comm{proc: c.proc, id: transport.CommID(c.id, seq, color), ranks: ranks, index: idx}, nil
}

// Subgroup creates a communicator from an explicit ordered list of parent
// indices. Every parent member must call it with an identical list;
// members not in the list receive a nil communicator. Unlike Split this
// performs no communication: the list is already globally known, which is
// how the CA-CQR2 grid builds its row/column/depth/subcube communicators
// from arithmetic on coordinates.
func (c *Comm) Subgroup(indices []int) transport.Comm {
	seq := c.nsplits
	c.nsplits++
	idx := -1
	for i, pi := range indices {
		if pi < 0 || pi >= len(c.ranks) {
			panic(fmt.Sprintf("simmpi: Subgroup index %d out of range", pi))
		}
		if pi == c.index {
			idx = i
		}
	}
	if idx == -1 {
		return nil
	}
	ranks := make([]int, len(indices))
	for i, pi := range indices {
		ranks[i] = c.ranks[pi]
	}
	return &Comm{proc: c.proc, id: transport.CommID(c.id, seq, indices...), ranks: ranks, index: idx}
}

// Send transfers data to communicator member dst with the given tag. The
// send is buffered (asynchronous): it enqueues immediately. The sender is
// charged α + len(data)·β on its virtual clock.
func (c *Comm) Send(dst, tag int, data []float64) error {
	if err := c.sendRaw(dst, tag, data); err != nil {
		return err
	}
	c.proc.ChargeComm(1, int64(len(data)))
	return nil
}

// Recv blocks until a message from communicator member src with the given
// tag arrives and returns its payload. The receiver is charged
// α + words·β, and its clock can never run ahead of the matching send's
// start time.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	m, err := c.match(src, tag)
	if err != nil {
		return nil, err
	}
	if m.sendStart > c.proc.clock {
		c.proc.clock = m.sendStart
	}
	c.proc.ChargeComm(1, int64(len(m.data)))
	return m.data, nil
}

// SendRecv exchanges messages with a partner (both directions, same tag).
// It models a full-duplex pairwise exchange and charges a single
// α + max(sent, received)·β — the cost of one butterfly round and of the
// paper's Transpose collective. It is safe against deadlock because the
// underlying transport is buffered.
func (c *Comm) SendRecv(partner, tag int, data []float64) ([]float64, error) {
	if err := c.sendRaw(partner, tag, data); err != nil {
		return nil, err
	}
	got, err := c.recvRaw(partner, tag)
	if err != nil {
		return nil, err
	}
	w := int64(len(data))
	if r := int64(len(got)); r > w {
		w = r
	}
	c.proc.ChargeComm(1, w)
	return got, nil
}

// sendRaw moves data without charging communication cost; the payload
// carries the sender's clock so receivers cannot run ahead of causality.
// Collectives use raw transport for data movement and charge their cost
// by formula via ChargeComm.
func (c *Comm) sendRaw(dst, tag int, data []float64) error {
	if dst < 0 || dst >= len(c.ranks) {
		return fmt.Errorf("simmpi: send to invalid rank %d of %d", dst, len(c.ranks))
	}
	p := c.proc
	payload := slices.Clone(data) // the caller's slice is only borrowed
	box := p.rt.boxes[c.ranks[dst]]
	box.mu.Lock()
	if box.aborted {
		box.mu.Unlock()
		return ErrAborted
	}
	box.queue = append(box.queue, message{commID: c.id, src: p.rank, tag: tag, data: payload, sendStart: p.clock})
	box.cond.Signal()
	box.mu.Unlock()
	return nil
}

// recvRaw receives without charging cost, advancing the local clock to the
// sender's clock if it is ahead (synchronization without charge).
func (c *Comm) recvRaw(src, tag int) ([]float64, error) {
	m, err := c.match(src, tag)
	if err != nil {
		return nil, err
	}
	if m.sendStart > c.proc.clock {
		c.proc.clock = m.sendStart
	}
	return m.data, nil
}

// match blocks until a message with the given source and tag is available
// on this communicator and dequeues it.
func (c *Comm) match(src, tag int) (message, error) {
	if src < 0 || src >= len(c.ranks) {
		return message{}, fmt.Errorf("simmpi: recv from invalid rank %d of %d", src, len(c.ranks))
	}
	p := c.proc
	srcGlobal := c.ranks[src]
	box := p.rt.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.aborted {
			return message{}, ErrAborted
		}
		for i, m := range box.queue {
			if m.commID == c.id && m.src == srcGlobal && m.tag == tag {
				box.queue = append(box.queue[:i], box.queue[i+1:]...)
				return m, nil
			}
		}
		box.cond.Wait()
	}
}
