package conformancetest

//lint:allow floatcompare the tests mark a destination with an exact sentinel to see whether it was written

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cacqr/internal/transport"
)

// intoOp is one destination form, called the same way on every member.
// in is the member's operand, dst where it wants the result; want is
// what a member with a result must get (nil: this member has none).
type intoOp struct {
	name string
	call func(w transport.Comm, in, dst []float64) ([]float64, error)
	want func(w transport.Comm, n int) []float64
}

// operand is member i's n-word vector: distinct per member, per element
// and per round.
func operand(i, n, round int) []float64 {
	v := make([]float64, n)
	for j := range v {
		v[j] = float64(1000*round + 10*(i+1) + j)
	}
	return v
}

// The destination forms over a root, with what each member should get.
func intoOps(root int) []intoOp {
	sum := func(w transport.Comm, n, round int) []float64 {
		s := make([]float64, n)
		for i := 0; i < w.Size(); i++ {
			for j, v := range operand(i, n, round) {
				s[j] += v
			}
		}
		return s
	}
	cat := func(w transport.Comm, n, round int) []float64 {
		var c []float64
		for i := 0; i < w.Size(); i++ {
			c = append(c, operand(i, n, round)...)
		}
		return c
	}
	onRoot := func(f func(w transport.Comm, n, round int) []float64) func(w transport.Comm, n int) []float64 {
		return func(w transport.Comm, n int) []float64 {
			if w.Index() != root {
				return nil
			}
			return f(w, n, 0)
		}
	}
	partner := func(w transport.Comm) int { return w.Index() ^ 1 }
	return []intoOp{
		{"BcastInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			if w.Index() != root {
				in = nil
			}
			return w.BcastInto(root, in, dst)
		}, func(w transport.Comm, n int) []float64 { return operand(root, n, 0) }},
		{"ReduceInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.ReduceInto(root, in, dst)
		}, onRoot(sum)},
		{"AllreduceInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.AllreduceInto(in, dst)
		}, func(w transport.Comm, n int) []float64 { return sum(w, n, 0) }},
		{"GatherInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.GatherInto(root, in, dst)
		}, onRoot(cat)},
		{"AllgatherInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.AllgatherInto(in, dst)
		}, func(w transport.Comm, n int) []float64 { return cat(w, n, 0) }},
		{"TransposeInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.TransposeInto(partner(w), in, dst)
		}, func(w transport.Comm, n int) []float64 { return operand(partner(w), n, 0) }},
		{"TransposeIntoSelf", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.TransposeInto(w.Index(), in, dst)
		}, func(w transport.Comm, n int) []float64 { return operand(w.Index(), n, 0) }},
		{"SendRecvInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			return w.SendRecvInto(partner(w), 21, in, dst)
		}, func(w transport.Comm, n int) []float64 { return operand(partner(w), n, 0) }},
		{"RecvInto", func(w transport.Comm, in, dst []float64) ([]float64, error) {
			if err := w.Send(partner(w), 22, in); err != nil {
				return nil, err
			}
			return w.RecvInto(partner(w), 22, dst)
		}, func(w transport.Comm, n int) []float64 { return operand(partner(w), n, 0) }},
	}
}

// runDestination is the contract of the destination forms: the result is
// written into storage the caller owned before the call and is that
// storage; a destination of the wrong length or one overlapping the
// operand is an error naming both lengths; and no buffer a link recycles
// is still referenced by anything a caller holds.
func runDestination(t *testing.T, run Runner) {
	ok := func(t *testing.T, np int, body func(p transport.Proc) error) {
		t.Helper()
		if _, err := run(np, 20*time.Second, body); err != nil {
			t.Fatalf("run failed: %v", err)
		}
	}
	const n = 5

	// landsIn holds a result to its destination: same storage, same
	// length, right values — and a member without a result gets none.
	landsIn := func(op intoOp, root int, w transport.Comm, got, dst []float64) error {
		want := op.want(w, n)
		switch {
		case want == nil && got != nil:
			return fmt.Errorf("%s: member %d has no result but got %v", op.name, w.Index(), got)
		case want == nil:
			return nil
		case op.name == "BcastInto" && w.Index() == root:
			// The root gets its operand back and never touches dst.
			if dst[0] != -1 {
				return fmt.Errorf("BcastInto: the root wrote its destination: %v", dst)
			}
		case len(got) != len(dst) || &got[0] != &dst[0]:
			return fmt.Errorf("%s: member %d: result is not the destination (%d words at %p, dst %d words at %p)",
				op.name, w.Index(), len(got), got, len(dst), dst)
		}
		return expectVec(fmt.Sprintf("%s on member %d", op.name, w.Index()), got, want)
	}
	// resultLen is how long op's result is on a member that has one.
	resultLen := func(op intoOp, w transport.Comm) int { return len(op.want(w, n)) }

	for _, np := range []int{4, 1} {
		np := np
		t.Run(fmt.Sprintf("LandsInDst/np%d", np), func(t *testing.T) {
			for _, op := range intoOps(np - 1) {
				op := op
				if np == 1 && (strings.HasPrefix(op.name, "SendRecv") || op.name == "RecvInto" || op.name == "TransposeInto") {
					continue // no partner to exchange with
				}
				ok(t, np, func(p transport.Proc) error {
					w := p.World()
					size := resultLen(op, w)
					if size == 0 {
						size = n // a member without a result: dst is not looked at
					}
					dst := make([]float64, size)
					for i := range dst {
						dst[i] = -1
					}
					got, err := op.call(w, operand(w.Index(), n, 0), dst)
					if err != nil {
						return fmt.Errorf("%s: %w", op.name, err)
					}
					return landsIn(op, np-1, w, got, dst)
				})
			}
		})
	}

	t.Run("WrongLength", func(t *testing.T) {
		// One member brings a destination one word short, then one word
		// long. Its call fails with both lengths in the message, and the
		// run fails with it.
		const root = 1
		for _, op := range intoOps(root) {
			for _, off := range []int{-1, +1} {
				op, off := op, off // a worker's rank may outlive the run that failed
				_, err := run(4, 20*time.Second, func(p transport.Proc) error {
					w := p.World()
					size := max(resultLen(op, w), n)
					bad := w.Index() == root
					if op.name == "BcastInto" {
						bad = w.Index() == root+1 // the root has no use for a destination
					}
					if !bad {
						_, err := op.call(w, operand(w.Index(), n, 0), make([]float64, size))
						return err
					}
					_, err := op.call(w, operand(w.Index(), n, 0), make([]float64, size+off))
					if err == nil {
						return fmt.Errorf("unnamed: a destination of %d for a result of %d was accepted", size+off, size)
					}
					if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("holds %d words", size+off)) || !strings.Contains(msg, fmt.Sprint(size)) {
						return fmt.Errorf("unnamed: destination of %d for a result of %d: %w", size+off, size, err)
					}
					return err
				})
				if err == nil || strings.Contains(err.Error(), "unnamed") || strings.Contains(err.Error(), "panicked") {
					t.Errorf("%s with a destination %+d words off: want a plain error naming both lengths, got: %v", op.name, off, err)
				}
			}
		}
	})

	t.Run("Aliasing", func(t *testing.T) {
		// A destination that shares storage with the operand is refused
		// before anything moves. (A Bcast member uses one or the other,
		// never both, so it has nothing to refuse.)
		for _, op := range intoOps(1) {
			if op.name == "BcastInto" || op.name == "RecvInto" {
				continue
			}
			op := op
			_, err := run(4, 20*time.Second, func(p transport.Proc) error {
				w := p.World()
				size := max(resultLen(op, w), n)
				buf := make([]float64, size+n)
				in := buf[size-2 : size-2+n] // the last two words of dst are the operand's first two
				copy(in, operand(w.Index(), n, 0))
				if w.Index() != 1 {
					return nil // the others would only wait for member 1
				}
				_, err := op.call(w, in, buf[:size])
				if err == nil {
					return fmt.Errorf("overlapping destination accepted")
				}
				if !strings.Contains(err.Error(), "overlaps") || !strings.Contains(err.Error(), fmt.Sprintf("(%d words)", size)) || !strings.Contains(err.Error(), fmt.Sprintf("%d-word operand", n)) {
					return fmt.Errorf("want an overlap error naming %d and %d, got: %w", size, n, err)
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
		}
	})

	t.Run("ReusedDst", func(t *testing.T) {
		// The same destinations, call after call, with data that changes
		// every round: a buffer a link took back while something still
		// pointed at it would show up as a stale or foreign value.
		ok(t, 3, func(p transport.Proc) error {
			w := p.World()
			me, size := w.Index(), w.Size()
			bc, ar, ag := make([]float64, n), make([]float64, n), make([]float64, size*n)
			for round := 0; round < 100; round++ {
				root := round % size
				var in []float64
				if me == root {
					in = operand(root, n, round)
				}
				got, err := w.BcastInto(root, in, bc)
				if err != nil {
					return err
				}
				if err := expectVec(fmt.Sprintf("round %d bcast", round), got, operand(root, n, round)); err != nil {
					return err
				}
				if got, err = w.AllreduceInto(operand(me, n, round), ar); err != nil {
					return err
				}
				sum := make([]float64, n)
				var cat []float64
				for i := 0; i < size; i++ {
					for j, v := range operand(i, n, round) {
						sum[j] += v
					}
					cat = append(cat, operand(i, n, round)...)
				}
				if err := expectVec(fmt.Sprintf("round %d allreduce", round), got, sum); err != nil {
					return err
				}
				if got, err = w.AllgatherInto(operand(me, n, round), ag); err != nil {
					return err
				}
				if err := expectVec(fmt.Sprintf("round %d allgather", round), got, cat); err != nil {
					return err
				}
				// Earlier results must have survived the later calls.
				if me != root {
					if err := expectVec(fmt.Sprintf("round %d bcast, after the others", round), bc, operand(root, n, round)); err != nil {
						return err
					}
				}
				if err := expectVec(fmt.Sprintf("round %d allreduce, after the allgather", round), ar, sum); err != nil {
					return err
				}
			}
			return nil
		})
	})

	t.Run("SenderOverwritesOperand", func(t *testing.T) {
		// Send borrows: the moment it returns the sender may reuse the
		// operand, and what the receiver gets is what was sent — however
		// long it waits before receiving, into a destination or not.
		ok(t, 2, func(p transport.Proc) error {
			w := p.World()
			const rounds = 50
			if w.Index() == 0 {
				buf := make([]float64, n)
				for round := 0; round <= rounds; round++ {
					copy(buf, operand(0, n, round))
					var err error
					if round < rounds {
						err = w.Send(1, 23, buf)
					} else {
						_, err = w.BcastInto(0, buf, nil)
					}
					if err != nil {
						return err
					}
					for i := range buf {
						buf[i] = -7
					}
				}
				return w.Send(1, 24, nil) // everything is sent, and overwritten
			}
			if _, err := w.Recv(0, 24); err != nil {
				return err
			}
			dst := make([]float64, n)
			for round := 0; round < rounds; round++ {
				into := dst
				if round%2 == 1 {
					into = nil
				}
				got, err := w.RecvInto(0, 23, into)
				if err != nil {
					return err
				}
				if err := expectVec(fmt.Sprintf("message %d", round), got, operand(0, n, round)); err != nil {
					return err
				}
			}
			got, err := w.BcastInto(0, nil, dst)
			if err != nil {
				return err
			}
			return expectVec("bcast received after its root moved on", got, operand(0, n, rounds))
		})
	})
}
