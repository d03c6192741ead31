package tcpnet

import (
	"fmt"
	"sort"

	"cacqr/internal/transport"
)

// Internal tags for collectives, outside the (non-negative) user tag
// space. Successive collectives on one communicator stay ordered
// because the mailbox is FIFO per (comm, src, tag).
const (
	tagBarrierIn  = -101
	tagBarrierOut = -102
	tagBcast      = -103
	tagReduce     = -104
	tagGather     = -105
	tagTranspose  = -106
)

// worldCommID identifies the all-ranks communicator; child ids are
// derived from it deterministically on every member (transport.CommID).
const worldCommID uint64 = 0

// comm implements transport.Comm over a node's mesh. Like the simulated
// backend, a value is one rank's handle onto the logical communicator;
// all members derive identical ids for the same Split/Subgroup call
// sequence, which is what makes matching work with no registry.
type comm struct {
	p     *proc
	id    uint64
	ranks []int // global ranks of members, in communicator order
	index int   // this rank's position within ranks

	nsplits int // per-member count of child communicators created
}

func (c *comm) Size() int            { return len(c.ranks) }
func (c *comm) Index() int           { return c.index }
func (c *comm) GlobalRank(i int) int { return c.ranks[i] }
func (c *comm) Proc() transport.Proc { return c.p }

// Split partitions the communicator MPI_Comm_split-style. The (color,
// key) pairs are exchanged via Allgather so every member computes every
// group; the child id is a hash of (parent id, call sequence, color),
// identical on all members of the group.
func (c *comm) Split(color, key int) (transport.Comm, error) {
	local := []float64{float64(color), float64(key), float64(c.index)}
	all, err := c.Allgather(local)
	if err != nil {
		return nil, err
	}
	type entry struct{ color, key, index int }
	var group []entry
	for i := 0; i < c.Size(); i++ {
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
	return &comm{p: c.p, id: transport.CommID(c.id, seq, color), ranks: ranks, index: idx}, nil
}

// Subgroup creates a communicator from an explicit ordered list of
// parent indices without communication; non-members receive nil.
func (c *comm) Subgroup(indices []int) transport.Comm {
	seq := c.nsplits
	c.nsplits++
	idx := -1
	for i, pi := range indices {
		if pi < 0 || pi >= len(c.ranks) {
			panic(fmt.Sprintf("tcpnet: Subgroup index %d out of range", pi))
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
	return &comm{p: c.p, id: transport.CommID(c.id, seq, indices...), ranks: ranks, index: idx}
}

// Send enqueues data for member dst (buffered). The sender is charged
// one message and the payload words — measured traffic, the same cost
// fields the simulated backend models.
func (c *comm) Send(dst, tag int, data []float64) error {
	if err := c.sendRaw(dst, tag, data); err != nil {
		return err
	}
	c.p.ChargeComm(1, int64(len(data)))
	return nil
}

// Recv blocks until a message from member src with the given tag
// arrives.
func (c *comm) Recv(src, tag int) ([]float64, error) {
	got, err := c.recvRaw(src, tag)
	if err != nil {
		return nil, err
	}
	c.p.ChargeComm(1, int64(len(got)))
	return got, nil
}

// SendRecv exchanges messages with a partner. Deadlock-free because
// sends are buffered; charged as one full-duplex exchange.
func (c *comm) SendRecv(partner, tag int, data []float64) ([]float64, error) {
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
	c.p.ChargeComm(1, w)
	return got, nil
}

func (c *comm) sendRaw(dst, tag int, data []float64) error {
	if dst < 0 || dst >= len(c.ranks) {
		return fmt.Errorf("tcpnet: send to invalid rank %d of %d", dst, len(c.ranks))
	}
	return c.p.n.send(c.id, c.ranks[dst], tag, data)
}

func (c *comm) recvRaw(src, tag int) ([]float64, error) {
	if src < 0 || src >= len(c.ranks) {
		return nil, fmt.Errorf("tcpnet: recv from invalid rank %d of %d", src, len(c.ranks))
	}
	return c.p.n.recvMatch(c.id, c.ranks[src], tag)
}

// Barrier gathers zero-length tokens at member 0 and releases everyone.
func (c *comm) Barrier() error {
	if c.Size() == 1 {
		return c.p.n.errNow()
	}
	if c.index == 0 {
		for i := 1; i < c.Size(); i++ {
			if _, err := c.Recv(i, tagBarrierIn); err != nil {
				return err
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.Send(i, tagBarrierOut, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tagBarrierIn, nil); err != nil {
		return err
	}
	_, err := c.Recv(0, tagBarrierOut)
	return err
}

// Bcast distributes root's data to every member.
func (c *comm) Bcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, fmt.Errorf("tcpnet: bcast from invalid root %d of %d", root, len(c.ranks))
	}
	if c.index == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.Send(i, tagBcast, data); err != nil {
				return nil, err
			}
		}
		return data, c.p.n.errNow()
	}
	return c.Recv(root, tagBcast)
}

// Reduce sums the members' equal-length vectors onto root. The sum
// starts from zero and takes the contributions in member order, root's
// own in its place — the simulator's order, so the two backends agree
// bitwise whatever the root and group size.
func (c *comm) Reduce(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, fmt.Errorf("tcpnet: reduce to invalid root %d of %d", root, len(c.ranks))
	}
	if c.index != root {
		return nil, c.Send(root, tagReduce, data)
	}
	sum := make([]float64, len(data))
	for i := 0; i < c.Size(); i++ {
		part := data
		if i != root {
			var err error
			if part, err = c.Recv(i, tagReduce); err != nil {
				return nil, err
			}
			if len(part) != len(sum) {
				return nil, fmt.Errorf("tcpnet: reduce length mismatch: %d vs %d", len(part), len(sum))
			}
		}
		for j, v := range part {
			sum[j] += v
		}
	}
	return sum, nil
}

// Allreduce sums on member 0 and broadcasts the result.
func (c *comm) Allreduce(data []float64) ([]float64, error) {
	sum, err := c.Reduce(0, data)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, sum)
}

// Gather concatenates the members' (possibly unequal) blocks in member
// order on root; the other members send their block and return nil.
func (c *comm) Gather(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, fmt.Errorf("tcpnet: gather to invalid root %d of %d", root, len(c.ranks))
	}
	if c.index != root {
		return nil, c.Send(root, tagGather, data)
	}
	blocks := make([][]float64, c.Size())
	blocks[root] = data
	total := len(data)
	for i := range blocks {
		if i == root {
			continue
		}
		got, err := c.Recv(i, tagGather)
		if err != nil {
			return nil, err
		}
		blocks[i] = got
		total += len(got)
	}
	out := make([]float64, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out, c.p.n.errNow()
}

// Allgather gathers on member 0 and broadcasts the concatenation.
func (c *comm) Allgather(data []float64) ([]float64, error) {
	out, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, out)
}

// Transpose swaps payloads with a partner member.
func (c *comm) Transpose(partner int, data []float64) ([]float64, error) {
	if partner == c.index {
		out := make([]float64, len(data))
		copy(out, data)
		return out, c.p.n.errNow()
	}
	return c.SendRecv(partner, tagTranspose, data)
}
