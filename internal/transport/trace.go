package transport

import "cacqr/internal/obs"

// Traced wraps a rank's Proc so every collective on every communicator
// derived from it records a kind-"collective" span under sp — carrying
// payload bytes and peer count, the α and β terms of one Table V line —
// and so kernel code can find sp via obs.StagesOf to hang stage spans
// on. A nil span returns p unchanged, which keeps both backends
// entirely untouched on the untraced path: tracing is a decorator at
// the run boundary, not a property of a backend.
//
// Point-to-point Send/Recv are forwarded unwrapped: fine-grained
// message spans would dominate the tree (CFR3D's recursion sends
// thousands), and their cost is already visible through the enclosing
// stage spans and the rank's Counters.
func Traced(p Proc, sp *obs.Span) Proc {
	//lint:ignore obssafety the untraced fast path must return the undecorated Proc itself, not a wrapper over a nil span
	if p == nil || sp == nil {
		return p
	}
	return &tracedProc{Proc: p, sp: sp}
}

type tracedProc struct {
	Proc
	sp *obs.Span
}

// TraceSpan exposes the rank span through obs.SpanCarrier.
func (t *tracedProc) TraceSpan() *obs.Span { return t.sp }

func (t *tracedProc) World() Comm {
	return &tracedComm{Comm: t.Proc.World(), proc: t}
}

type tracedComm struct {
	Comm
	proc *tracedProc
}

// Proc returns the traced handle, so grid/kernel code reached through
// comm.Proc() sees the span too.
func (c *tracedComm) Proc() Proc { return c.proc }

// collective opens one collective span; done closes it. words is the
// payload length in float64 words (8 bytes each).
func (c *tracedComm) collective(op string, words int) func() {
	sp := c.proc.sp.Collective(op)
	sp.SetInt("bytes", int64(words)*8)
	sp.SetInt("peers", int64(c.Comm.Size()))
	return sp.End
}

func (c *tracedComm) Barrier() error {
	done := c.collective("barrier", 0)
	defer done()
	return c.Comm.Barrier()
}

func (c *tracedComm) Bcast(root int, data []float64) ([]float64, error) {
	done := c.collective("bcast", len(data))
	defer done()
	return c.Comm.Bcast(root, data)
}

func (c *tracedComm) Reduce(root int, data []float64) ([]float64, error) {
	done := c.collective("reduce", len(data))
	defer done()
	return c.Comm.Reduce(root, data)
}

func (c *tracedComm) Allreduce(data []float64) ([]float64, error) {
	done := c.collective("allreduce", len(data))
	defer done()
	return c.Comm.Allreduce(data)
}

func (c *tracedComm) Gather(root int, data []float64) ([]float64, error) {
	done := c.collective("gather", len(data))
	defer done()
	return c.Comm.Gather(root, data)
}

func (c *tracedComm) Allgather(data []float64) ([]float64, error) {
	done := c.collective("allgather", len(data))
	defer done()
	return c.Comm.Allgather(data)
}

func (c *tracedComm) Transpose(partner int, data []float64) ([]float64, error) {
	done := c.collective("transpose", len(data))
	defer done()
	return c.Comm.Transpose(partner, data)
}

func (c *tracedComm) Split(color, key int) (Comm, error) {
	sub, err := c.Comm.Split(color, key)
	if err != nil || sub == nil {
		return sub, err
	}
	return &tracedComm{Comm: sub, proc: c.proc}, nil
}

func (c *tracedComm) Subgroup(indices []int) Comm {
	sub := c.Comm.Subgroup(indices)
	if sub == nil {
		return nil
	}
	return &tracedComm{Comm: sub, proc: c.proc}
}
