package transport

import (
	"fmt"
	"sort"
	"unsafe"

	"cacqr/internal/obs"
)

// Op names a collective: the key of a backend's price list and the name
// of the collective's trace span.
type Op string

const (
	OpBarrier   Op = "barrier"
	OpBcast     Op = "bcast"
	OpReduce    Op = "reduce"
	OpAllreduce Op = "allreduce"
	OpGather    Op = "gather"
	OpAllgather Op = "allgather"
	OpTranspose Op = "transpose"
)

// Link is what a backend supplies under the one communicator: raw
// message movement between global ranks, and what a collective costs.
//
// Send must be buffered (it returns without waiting for the matching
// Recv, so a pairwise exchange cannot deadlock) and must copy or encode
// data before it returns: the sender may overwrite data at once. Recv
// blocks for the oldest message sent with the same (comm, tag) by global
// rank src — FIFO per (comm, src, tag). With a non-nil dst long enough
// for the payload it copies the n words into dst[:n], returns that, and
// takes its own buffer back to reuse; with a nil dst, or one too short,
// it hands its buffer to the caller for good. Neither charges anything:
// the communicator charges point-to-point traffic through
// Proc.ChargeComm and every collective through ChargeCollective.
type Link interface {
	Send(comm uint64, dst, tag int, data []float64) error
	Recv(comm uint64, src, tag int, dst []float64) ([]float64, error)
	// ChargeCollective charges the calling rank for one completed
	// collective over p members. n is the payload in words (Bcast,
	// Reduce, Allreduce: the vector; Gather, Allgather: the
	// concatenation; Barrier: 0) and moved the messages and words this
	// member's raw sends and receives carried, so a backend can charge
	// by formula or by what moved.
	ChargeCollective(op Op, p int, n int64, moved Counters)
}

// Reserved tags of the collectives, outside the non-negative user tag
// space. Successive collectives on one communicator stay ordered because
// a Link is FIFO per (comm, src, tag) and every member calls them in the
// same order.
const (
	tagBcast = -101 - iota
	tagReduce
	tagGather
	tagTranspose
)

// comm is the one implementation of Comm: a rank's handle onto an
// ordered group of global ranks, over a backend's Link. The world is id
// 0 and every member derives the same child id (CommID) for the same
// Split/Subgroup call, so members agree on it — and messages match —
// without communication or shared state.
//
// The collectives move data on linear fans through one member: a rooted
// collective between its root and every other member, Allreduce,
// Allgather and Barrier through member 0 and back.
type comm struct {
	proc Proc      // what Proc returns: the backend's handle, or Traced's wrapper of it
	link Link      // the backend's data plane and price list
	span *obs.Span // the rank span collectives record under; nil when untraced

	id    uint64
	ranks []int // global ranks of members, in communicator order
	index int   // this rank's position within ranks

	nsplits int // per-member count of child communicators created

	// part is where reduce receives each contribution before adding it:
	// one buffer per rank, shared by every communicator derived from the
	// rank's world (a rank runs one collective at a time), grown to the
	// largest vector reduced onto this rank and kept.
	part *[]float64
}

// NewWorld returns proc's handle on the communicator of all
// proc.Size() ranks, moving data over link.
func NewWorld(proc Proc, link Link) Comm {
	ranks := make([]int, proc.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return &comm{proc: proc, link: link, ranks: ranks, index: proc.Rank(), part: new([]float64)}
}

func (c *comm) Size() int            { return len(c.ranks) }
func (c *comm) Index() int           { return c.index }
func (c *comm) GlobalRank(i int) int { return c.ranks[i] }
func (c *comm) Proc() Proc           { return c.proc }

// ID returns the communicator id messages are matched by.
func (c *comm) ID() uint64 { return c.id }

// child is the handle on a communicator derived from c.
func (c *comm) child(id uint64, ranks []int, index int) *comm {
	return &comm{proc: c.proc, link: c.link, span: c.span, id: id, ranks: ranks, index: index, part: c.part}
}

// Split exchanges (color, key) among all members via an allgather so
// every rank can compute every group deterministically. This mirrors
// how MPI implementations realize split, and charges the proper cost.
func (c *comm) Split(color, key int) (Comm, error) {
	all, err := c.allgather([]float64{float64(color), float64(key), float64(c.index)}, nil)
	if err != nil {
		return nil, err
	}
	type entry struct{ color, key, index int }
	var group []entry
	for i := range c.ranks {
		e := entry{int(all[3*i]), int(all[3*i+1]), int(all[3*i+2])}
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
	return c.child(CommID(c.id, seq, color), ranks, idx), nil
}

// Subgroup performs no communication: a member computes its group's
// list, which is how the CA-CQR2 grid builds a rank's row/column/depth/
// subcube communicators from arithmetic on its coordinates.
func (c *comm) Subgroup(indices []int) Comm {
	seq := c.nsplits
	c.nsplits++
	idx := -1
	for i, pi := range indices {
		if pi < 0 || pi >= len(c.ranks) {
			panic(fmt.Sprintf("transport: Subgroup index %d out of range", pi))
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
	return c.child(CommID(c.id, seq, indices...), ranks, idx)
}

// checkMember rejects a peer or root index outside the communicator.
func (c *comm) checkMember(what string, i int) error {
	if i < 0 || i >= len(c.ranks) {
		return fmt.Errorf("transport: %s invalid rank %d of %d", what, i, len(c.ranks))
	}
	return nil
}

// Send charges the sender one message and the payload words.
func (c *comm) Send(dst, tag int, data []float64) error {
	if err := c.checkMember("send to", dst); err != nil {
		return err
	}
	if err := c.link.Send(c.id, c.ranks[dst], tag, data); err != nil {
		return err
	}
	c.proc.ChargeComm(1, int64(len(data)))
	return nil
}

func (c *comm) Recv(src, tag int) ([]float64, error) { return c.RecvInto(src, tag, nil) }

// RecvInto charges the receiver one message and the payload words.
func (c *comm) RecvInto(src, tag int, dst []float64) ([]float64, error) {
	if err := c.checkMember("recv from", src); err != nil {
		return nil, err
	}
	got, err := c.link.Recv(c.id, c.ranks[src], tag, dst)
	if err != nil {
		return nil, err
	}
	c.proc.ChargeComm(1, int64(len(got)))
	return got, sized("recv", dst, len(got))
}

func (c *comm) SendRecv(partner, tag int, data []float64) ([]float64, error) {
	return c.SendRecvInto(partner, tag, data, nil)
}

// SendRecvInto models a full-duplex pairwise exchange and charges a
// single message of max(sent, received) words — the cost of one
// butterfly round and of the paper's Transpose collective. It cannot
// deadlock because a Link's sends are buffered.
func (c *comm) SendRecvInto(partner, tag int, data, dst []float64) ([]float64, error) {
	if err := c.checkMember("exchange with", partner); err != nil {
		return nil, err
	}
	if err := apart("exchange", dst, data); err != nil {
		return nil, err
	}
	if err := c.link.Send(c.id, c.ranks[partner], tag, data); err != nil {
		return nil, err
	}
	got, err := c.link.Recv(c.id, c.ranks[partner], tag, dst)
	if err != nil {
		return nil, err
	}
	c.proc.ChargeComm(1, int64(max(len(data), len(got))))
	return got, sized("exchange", dst, len(got))
}

// A destination is storage the caller owned before the call and the
// result is written into: every form below that takes one returns it
// (result[0] is dst[0]), and nil means "allocate", which is what the
// slice-returning methods pass. It must be exactly as long as the
// result and must not overlap the operand; either fault is an error
// that names both lengths.

// fresh is the nil-destination fallback, the one place a collective
// allocates a result: dst itself when the caller brought one.
func fresh(dst []float64, n int) []float64 {
	if dst == nil {
		return make([]float64, n)
	}
	return dst
}

// sized rejects a destination that cannot hold a result of n words.
func sized(what string, dst []float64, n int) error {
	if dst != nil && len(dst) != n {
		return fmt.Errorf("transport: %s destination holds %d words, the result has %d", what, len(dst), n)
	}
	return nil
}

// apart rejects a destination that shares storage with the operand: the
// result is written while the operand is still being read.
func apart(what string, dst, data []float64) error {
	if len(dst) == 0 || len(data) == 0 {
		return nil
	}
	d0, d1 := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&dst[len(dst)-1]))
	o0, o1 := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[len(data)-1]))
	if d0 <= o1 && o0 <= d1 {
		return fmt.Errorf("transport: %s destination (%d words) overlaps the %d-word operand", what, len(dst), len(data))
	}
	return nil
}

// vet is both checks, for a result as long as its operand.
func vet(what string, dst, data []float64) error {
	if err := sized(what, dst, len(data)); err != nil {
		return err
	}
	return apart(what, dst, data)
}

// send and recv are the collectives' uncharged data plane; they add
// what they carry to moved. recv hands the link dst to fill (nil: the
// link hands over its own buffer) and returns what arrived, which is
// dst's prefix whenever it fit.
func (c *comm) send(dst, tag int, data []float64, moved *Counters) error {
	moved.Msgs++
	moved.Words += int64(len(data))
	return c.link.Send(c.id, c.ranks[dst], tag, data)
}

func (c *comm) recv(src, tag int, dst []float64, moved *Counters) ([]float64, error) {
	got, err := c.link.Recv(c.id, c.ranks[src], tag, dst)
	moved.Msgs++
	moved.Words += int64(len(got))
	return got, err
}

// begin opens the trace span of one collective call. words is the
// payload this member handed in; a nil rank span makes all of it a
// no-op. A member alone in its communicator moves nothing and, as in
// charge, leaves no trace of the call.
func (c *comm) begin(op Op, words int) *obs.Span {
	if len(c.ranks) == 1 {
		return nil
	}
	sp := c.span.Collective(string(op))
	sp.SetInt("bytes", 8*int64(words))
	sp.SetInt("peers", int64(len(c.ranks)))
	return sp
}

// charge prices one completed collective of n payload words. Alone in
// a communicator a member moved nothing and is charged nothing, not
// even an empty entry in the phase ledger.
func (c *comm) charge(op Op, n int, moved Counters) {
	if len(c.ranks) > 1 {
		c.link.ChargeCollective(op, len(c.ranks), int64(n), moved)
	}
}

// bcast, reduce and gather are the three linear fans every collective
// is made of. Each writes its result into dst (see fresh).

// bcast's root sends data and returns it — dst is for the members that
// receive, and the root never touches it.
func (c *comm) bcast(root int, data, dst []float64, moved *Counters) ([]float64, error) {
	if c.index != root {
		got, err := c.recv(root, tagBcast, dst, moved)
		if err != nil {
			return nil, err
		}
		return got, sized("bcast", dst, len(got))
	}
	for i := range c.ranks {
		if i == root {
			continue
		}
		if err := c.send(i, tagBcast, data, moved); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// reduce starts the sum from zero and takes the contributions in member
// order, root's own in its place, so the result does not depend on the
// root, the group size or the backend. The caller has vetted dst. Each
// contribution is received into the rank's one scratch (c.part) and
// added from there — except between two members.
func (c *comm) reduce(root int, data, dst []float64, moved *Counters) ([]float64, error) {
	if c.index != root {
		return nil, c.send(root, tagReduce, data, moved)
	}
	sum := fresh(dst, len(data))
	if len(c.ranks) == 2 {
		// A sum of two needs no scratch: the other term is received
		// where the sum will be and the two are added there, still from
		// zero and in member order.
		other, err := c.recv(1-root, tagReduce, sum, moved)
		if err != nil {
			return nil, err
		}
		if len(other) != len(sum) {
			return nil, fmt.Errorf("transport: reduce length mismatch: %d vs %d", len(other), len(sum))
		}
		first, second := data, other
		if root == 1 {
			first, second = other, data
		}
		for j := range sum {
			sum[j] = 0 + first[j] + second[j]
		}
		return sum, nil
	}
	if len(c.ranks) > 1 && cap(*c.part) < len(data) {
		*c.part = make([]float64, len(data))
	}
	for i := range c.ranks {
		part := data
		if i != root {
			var err error
			if part, err = c.recv(i, tagReduce, (*c.part)[:len(data)], moved); err != nil {
				return nil, err
			}
			if len(part) != len(sum) {
				return nil, fmt.Errorf("transport: reduce length mismatch: %d vs %d", len(part), len(sum))
			}
		}
		if i == 0 {
			for j, v := range part {
				sum[j] = 0 + v // from zero, like every later term: −0 comes out +0
			}
			continue
		}
		for j, v := range part {
			sum[j] += v
		}
	}
	return sum, nil
}

// gather receives each block straight into its place in dst. Without a
// destination the total is unknown until the last block is in, so the
// result starts at Size blocks of the root's length — exact whenever
// blocks are equal — and grows if they are not.
func (c *comm) gather(root int, data, dst []float64, moved *Counters) ([]float64, error) {
	if c.index != root {
		return nil, c.send(root, tagGather, data, moved)
	}
	if err := apart("gather", dst, data); err != nil {
		return nil, err
	}
	grow := dst == nil
	out := fresh(dst, len(c.ranks)*len(data))
	out = out[:0:len(out)]
	for i := range c.ranks {
		part, inPlace := data, false
		if i != root {
			room := out[len(out):cap(out)]
			var err error
			if part, err = c.recv(i, tagGather, room, moved); err != nil {
				return nil, err
			}
			inPlace = len(part) <= len(room) // it fit, so the link put it there
		}
		switch {
		case inPlace:
			out = out[:len(out)+len(part)]
		case grow || len(part) <= cap(out)-len(out):
			out = append(out, part...)
		default:
			return nil, fmt.Errorf("transport: gather destination holds %d words, the blocks up to member %d have %d", len(dst), i, len(out)+len(part))
		}
	}
	return out, sized("gather", dst, len(out))
}

// Barrier gathers empty tokens at member 0 and releases everyone.
func (c *comm) Barrier() error {
	sp := c.begin(OpBarrier, 0)
	defer sp.End()
	var moved Counters
	_, err := c.gather(0, nil, nil, &moved)
	if err == nil {
		_, err = c.bcast(0, nil, nil, &moved)
	}
	if err != nil {
		return err
	}
	c.charge(OpBarrier, 0, moved)
	return nil
}

func (c *comm) Bcast(root int, data []float64) ([]float64, error) {
	return c.BcastInto(root, data, nil)
}

func (c *comm) BcastInto(root int, data, dst []float64) ([]float64, error) {
	if err := c.checkMember("bcast from", root); err != nil {
		return nil, err
	}
	sp := c.begin(OpBcast, len(data))
	defer sp.End()
	var moved Counters
	out, err := c.bcast(root, data, dst, &moved)
	if err != nil {
		return nil, err
	}
	// Only the root handed the payload in; every member's span carries it.
	sp.SetInt("bytes", 8*int64(len(out)))
	c.charge(OpBcast, len(out), moved)
	return out, nil
}

func (c *comm) Reduce(root int, data []float64) ([]float64, error) {
	return c.ReduceInto(root, data, nil)
}

func (c *comm) ReduceInto(root int, data, dst []float64) ([]float64, error) {
	if err := c.checkMember("reduce to", root); err != nil {
		return nil, err
	}
	sp := c.begin(OpReduce, len(data))
	defer sp.End()
	if c.index == root {
		if err := vet("reduce", dst, data); err != nil {
			return nil, err
		}
	}
	var moved Counters
	sum, err := c.reduce(root, data, dst, &moved)
	if err != nil {
		return nil, err
	}
	c.charge(OpReduce, len(data), moved)
	return sum, nil
}

func (c *comm) Allreduce(data []float64) ([]float64, error) { return c.AllreduceInto(data, nil) }

// AllreduceInto sums on member 0 and broadcasts the result. Every
// member's destination is vetted before anything moves, so a bad one
// fails its own rank and not a peer's receive.
func (c *comm) AllreduceInto(data, dst []float64) ([]float64, error) {
	sp := c.begin(OpAllreduce, len(data))
	defer sp.End()
	if err := vet("allreduce", dst, data); err != nil {
		return nil, err
	}
	var moved Counters
	sum, err := c.reduce(0, data, dst, &moved)
	if err == nil {
		sum, err = c.bcast(0, sum, dst, &moved)
	}
	if err != nil {
		return nil, err
	}
	c.charge(OpAllreduce, len(data), moved)
	return sum, nil
}

func (c *comm) Gather(root int, data []float64) ([]float64, error) {
	return c.GatherInto(root, data, nil)
}

// GatherInto prices the concatenation. Off the root, which never sees
// it, that is taken as Size times the member's own block — the total
// whenever blocks are equal, which every caller in this repository
// guarantees (dist.Gather and the 1D Q gather check divisibility before
// a rank starts) — so rooting an output gather changes who holds the
// copy and not what a formula-charging backend counts.
func (c *comm) GatherInto(root int, data, dst []float64) ([]float64, error) {
	if err := c.checkMember("gather to", root); err != nil {
		return nil, err
	}
	sp := c.begin(OpGather, len(data))
	defer sp.End()
	var moved Counters
	out, err := c.gather(root, data, dst, &moved)
	if err != nil {
		return nil, err
	}
	n := len(out)
	if c.index != root {
		n = len(c.ranks) * len(data)
	}
	c.charge(OpGather, n, moved)
	return out, nil
}

func (c *comm) Allgather(data []float64) ([]float64, error) { return c.AllgatherInto(data, nil) }

func (c *comm) AllgatherInto(data, dst []float64) ([]float64, error) {
	sp := c.begin(OpAllgather, len(data))
	defer sp.End()
	return c.allgather(data, dst)
}

// allgather gathers on member 0 and broadcasts the concatenation. Split
// calls it directly: its exchange is charged but is not a collective the
// algorithm asked for, so it records no span.
func (c *comm) allgather(data, dst []float64) ([]float64, error) {
	if err := apart("allgather", dst, data); err != nil {
		return nil, err
	}
	var moved Counters
	out, err := c.gather(0, data, dst, &moved)
	if err == nil {
		out, err = c.bcast(0, out, dst, &moved)
	}
	if err != nil {
		return nil, err
	}
	c.charge(OpAllgather, len(out), moved)
	return out, nil
}

func (c *comm) Transpose(partner int, data []float64) ([]float64, error) {
	return c.TransposeInto(partner, data, nil)
}

// TransposeInto is a SendRecv, and charged as one; partner == self is
// free, and a copy.
func (c *comm) TransposeInto(partner int, data, dst []float64) ([]float64, error) {
	sp := c.begin(OpTranspose, len(data))
	defer sp.End()
	if partner != c.index {
		return c.SendRecvInto(partner, tagTranspose, data, dst)
	}
	if err := vet("transpose", dst, data); err != nil {
		return nil, err
	}
	out := fresh(dst, len(data))
	copy(out, data)
	return out, nil
}
