package simmpi

import (
	"fmt"
	"slices"
)

// Collectives with the butterfly-schedule costs of the paper's §II-B:
//
//	Transpose(n, P):  δ(P)·(α + n·β)          (pairwise swap — SendRecv)
//	Bcast(n, P):      2·log₂P·α + 2n·δ(P)·β   (scatter + allgather)
//	Reduce(n, P):     2·log₂P·α + 2n·δ(P)·β   (reduce-scatter + gather)
//	Allreduce(n, P):  2·log₂P·α + 2n·δ(P)·β   (reduce-scatter + allgather)
//	Allgather(n, P):  log₂P·α + n·δ(P)·β      (recursive doubling, n = total)
//	Gather(n, P):     log₂P·α + n·δ(P)·β      (charged as Allgather, n = total)
//	Barrier(P):       log₂P·α                 (dissemination)
//
// Data movement itself uses the zero-cost raw transport (clock causality is
// still enforced); each participant then charges the formula cost, so the
// Msgs/Words counters report exactly the per-processor α and β cost units
// the paper's Tables I–VI are written in. Collectives synchronize: no rank
// leaves before every rank has entered (clock-wise), matching how the paper
// composes collective costs along the critical path.

// internal tags; user tags share the space but collectives allocate a
// fresh op sequence per call through per-comm FIFO ordering, so matching
// is unambiguous.
const (
	tagGather = -1000 - iota
	tagSpread
	tagBarrier
)

// delta is the paper's δ(x): 0 for x ≤ 1, 1 otherwise.
func delta(p int) int64 {
	if p <= 1 {
		return 0
	}
	return 1
}

// log2Ceil returns ⌈log₂ p⌉ (0 for p ≤ 1).
func log2Ceil(p int) int64 {
	var l int64
	for v := 1; v < p; v <<= 1 {
		l++
	}
	return l
}

// Barrier blocks until every member has entered, charging log₂P·α.
func (c *Comm) Barrier() error {
	if _, err := c.fanInOut(0, nil, nil); err != nil {
		return err
	}
	c.proc.ChargeComm(log2Ceil(c.Size()), 0)
	return nil
}

// Bcast distributes root's data to every member and returns it. Non-root
// callers pass nil. Charges 2·log₂P·α + 2n·δ(P)·β to every member.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("simmpi: bcast root %d out of range %d", root, c.Size())
	}
	if c.Size() == 1 {
		return data, nil
	}
	out, err := c.fanInOut(root, nil, func([][]float64) ([]float64, error) { return data, nil })
	if err != nil {
		return nil, err
	}
	n := int64(len(out))
	c.proc.ChargeComm(2*log2Ceil(c.Size()), 2*n*delta(c.Size()))
	return out, nil
}

// Reduce sums the members' equal-length vectors onto root. It returns the
// reduction on root and nil elsewhere. Charges 2·log₂P·α + 2n·δ(P)·β.
func (c *Comm) Reduce(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("simmpi: reduce root %d out of range %d", root, c.Size())
	}
	n := int64(len(data))
	if c.Size() == 1 {
		return slices.Clone(data), nil
	}
	var result []float64
	_, err := c.fanInOut(root, data, func(msgs [][]float64) (_ []float64, err error) {
		result, err = sumVectors(msgs, len(data))
		return nil, err // nothing to spread
	})
	if err != nil {
		return nil, err
	}
	c.proc.ChargeComm(2*log2Ceil(c.Size()), 2*n*delta(c.Size()))
	if c.Index() == root {
		return result, nil
	}
	return nil, nil
}

// Allreduce sums the members' equal-length vectors and returns the result
// on every member. Charges 2·log₂P·α + 2n·δ(P)·β.
func (c *Comm) Allreduce(data []float64) ([]float64, error) {
	n := int64(len(data))
	if c.Size() == 1 {
		return slices.Clone(data), nil
	}
	out, err := c.fanInOut(0, data, func(msgs [][]float64) ([]float64, error) {
		return sumVectors(msgs, len(data))
	})
	if err != nil {
		return nil, err
	}
	c.proc.ChargeComm(2*log2Ceil(c.Size()), 2*n*delta(c.Size()))
	return out, nil
}

// Gather concatenates the members' (possibly unequal) blocks in rank
// order onto root: the concatenation on root, nil elsewhere. Every member
// is charged Allgather's log₂P·α + N·δ(P)·β with N the total gathered
// length, so rooting an output gather changes who holds the copy and not
// a single counter.
func (c *Comm) Gather(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("simmpi: gather root %d out of range %d", root, c.Size())
	}
	if c.Size() == 1 {
		return slices.Clone(data), nil
	}
	var cat []float64 // stays nil off root, where combine never runs
	total, err := c.fanInOut(root, data, func(msgs [][]float64) ([]float64, error) {
		cat = concat(msgs)
		return []float64{float64(len(cat))}, nil // the N every member is charged for
	})
	if err != nil {
		return nil, err
	}
	c.proc.ChargeComm(log2Ceil(c.Size()), int64(total[0])*delta(c.Size()))
	return cat, nil
}

// Allgather concatenates the members' (possibly unequal) blocks in rank
// order and returns the concatenation on every member. Charges
// log₂P·α + N·δ(P)·β where N is the total concatenated length, matching
// the paper's T_Allgather(n, P) with n the full gathered size.
func (c *Comm) Allgather(data []float64) ([]float64, error) {
	if c.Size() == 1 {
		return slices.Clone(data), nil
	}
	out, err := c.fanInOut(0, data, func(msgs [][]float64) ([]float64, error) { return concat(msgs), nil })
	if err != nil {
		return nil, err
	}
	c.proc.ChargeComm(log2Ceil(c.Size()), int64(len(out))*delta(c.Size()))
	return out, nil
}

// Transpose swaps payloads with a partner rank (the paper's Transpose
// collective over Π[y,x,z]); the exchange costs δ(P)·(α + n·β) via
// SendRecv. When partner == self it is free and returns the input.
func (c *Comm) Transpose(partner int, data []float64) ([]float64, error) {
	if partner == c.Index() {
		return slices.Clone(data), nil
	}
	return c.SendRecv(partner, tagSpread, data)
}

// fanInOut is the internal data plane shared by the collectives: gather
// every member's contribution at root, apply combine there, and spread the
// result back to all members. Clock causality makes this synchronizing
// (every output clock ≥ every input clock — the root's max-propagation);
// cost is charged separately by each collective's formula. combine runs
// only on root; msgs arrive in member order, and its error fails root's
// call (the run then aborts the members waiting for the spread). A nil
// combine gathers only.
func (c *Comm) fanInOut(root int, contrib []float64, combine func([][]float64) ([]float64, error)) ([]float64, error) {
	p := c.Size()
	if c.Index() == root {
		msgs := make([][]float64, p)
		msgs[root] = contrib
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			m, err := c.recvRaw(i, tagGather)
			if err != nil {
				return nil, err
			}
			msgs[i] = m
		}
		var out []float64
		if combine != nil {
			var err error
			if out, err = combine(msgs); err != nil {
				return nil, err
			}
		}
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			if err := c.sendRaw(i, tagSpread, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := c.sendRaw(root, tagGather, contrib); err != nil {
		return nil, err
	}
	return c.recvRaw(root, tagSpread)
}

// concat joins the members' blocks in member order.
func concat(msgs [][]float64) []float64 {
	var total int
	for _, m := range msgs {
		total += len(m)
	}
	cat := make([]float64, 0, total)
	for _, m := range msgs {
		cat = append(cat, m...)
	}
	return cat
}

// sumVectors adds the members' vectors in member order, starting from
// zero; a member whose length differs from the root's n is an error.
func sumVectors(msgs [][]float64, n int) ([]float64, error) {
	out := make([]float64, n)
	for _, m := range msgs {
		if len(m) != n {
			return nil, fmt.Errorf("simmpi: reduce length mismatch: %d vs %d", len(m), n)
		}
		for i, v := range m {
			out[i] += v
		}
	}
	return out, nil
}
