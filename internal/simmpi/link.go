package simmpi

import "cacqr/internal/transport"

// link is the simulator's transport.Link: messages move between the
// ranks' mailboxes stamped with the sender's clock, and a collective
// costs what the paper's §II-B says, whatever moved.
type link struct{ *Proc }

// Send copies data into one of the run's recycled buffers and posts that
// to dst's mailbox, stamped with the sender's clock at the start of the
// send so the receiver cannot run ahead of causality.
func (l link) Send(comm uint64, dst, tag int, data []float64) error {
	return l.rt.boxes[dst].Post(transport.Message{
		Comm: comm, Src: l.rank, Tag: tag, Data: l.rt.wire.Copy(data), Stamp: l.clock,
	})
}

// Recv advances the local clock to the matching send's stamp if that is
// ahead: synchronization without charge. A payload that fits dst is
// copied there and its buffer goes back to the run's free list — a
// message then costs two copies and no allocation; otherwise the buffer
// is the caller's.
func (l link) Recv(comm uint64, src, tag int, dst []float64) ([]float64, error) {
	m, err := l.rt.boxes[l.rank].Take(comm, src, tag)
	if err != nil {
		return nil, err
	}
	l.clock = max(l.clock, m.Stamp)
	if dst == nil || len(m.Data) > len(dst) {
		return m.Data, nil
	}
	n := copy(dst, m.Data)
	l.rt.wire.Put(m.Data)
	return dst[:n], nil
}

// ChargeCollective is the price list — the butterfly-schedule costs of
// the paper's §II-B, written here and nowhere else:
//
//	Bcast(n, P):      2·log₂P·α + 2n·δ(P)·β   (scatter + allgather)
//	Reduce(n, P):     2·log₂P·α + 2n·δ(P)·β   (reduce-scatter + gather)
//	Allreduce(n, P):  2·log₂P·α + 2n·δ(P)·β   (reduce-scatter + allgather)
//	Allgather(n, P):  log₂P·α + n·δ(P)·β      (recursive doubling, n = total)
//	Gather(n, P):     log₂P·α + n·δ(P)·β      (charged as Allgather, n = total)
//	Barrier(P):       log₂P·α                 (dissemination)
//	Transpose(n, P):  δ(P)·(α + n·β)          (a SendRecv, charged as one)
//
// The data itself travels on the shared communicator's linear fans, so
// moved is ignored: every member charges the formula, and the Msgs/Words
// counters report exactly the per-processor α and β cost units the
// paper's Tables I–VI are written in.
//
// On the clock a collective is causal, not lockstep: a member leaves at
// its own price after the latest send it had to wait for. A Bcast root
// and a Reduce or Gather leaf wait for nobody, as in MPI; Barrier,
// Allreduce and Allgather pass through member 0 and so still lift every
// member to the slowest entrant.
func (l link) ChargeCollective(op transport.Op, p int, n int64, _ transport.Counters) {
	switch op {
	case transport.OpBarrier:
		l.ChargeComm(log2Ceil(p), 0)
	case transport.OpBcast, transport.OpReduce, transport.OpAllreduce:
		l.ChargeComm(2*log2Ceil(p), 2*n*delta(p))
	case transport.OpGather, transport.OpAllgather:
		l.ChargeComm(log2Ceil(p), n*delta(p))
	}
}

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
