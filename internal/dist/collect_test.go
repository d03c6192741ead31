package dist

//lint:allow floatcompare the tests assert payloads arrive and stay bit-identical

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
	"cacqr/internal/transport/conformancetest"
	"cacqr/internal/transport/tcpnet"
)

// onBothLinks runs body under the transport conformance harness's Runner
// on each backend: the simulator, where ranks share one address space (so
// a result that aliased another rank's storage would show), and loopback
// TCP, where every payload really crosses a wire.
func onBothLinks(t *testing.T, body func(t *testing.T, run conformancetest.Runner)) {
	t.Run("sim", func(t *testing.T) {
		body(t, func(np int, timeout time.Duration, rank func(p transport.Proc) error) (*transport.Stats, error) {
			return simmpi.RunWithOptions(np, simmpi.Options{Timeout: timeout}, func(p *simmpi.Proc) error { return rank(p) })
		})
	})
	t.Run("tcp", func(t *testing.T) {
		body(t, func(np int, timeout time.Duration, rank func(p transport.Proc) error) (*transport.Stats, error) {
			addrs := make([]string, np-1)
			for i := range addrs {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				defer ln.Close()
				addrs[i] = ln.Addr().String()
				go tcpnet.Serve(ln, func(p transport.Proc, _ []byte) error { return rank(p) })
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			return (&tcpnet.Coordinator{Workers: addrs}).Run(ctx, nil, rank)
		})
	})
}

// stridedBlock returns member me's rows × cols operand as a view into the
// middle of a larger matrix filled with a sentinel, and a check that the
// call left the whole backing matrix — view and surroundings — as it was.
func stridedBlock(me, rows, cols int) (view *lin.Matrix, untouched func() error) {
	back := lin.NewMatrix(rows+2, cols+3)
	for i := range back.Data {
		back.Data[i] = -7
	}
	view = back.View(1, 2, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			view.Set(i, j, float64(100*me+10*i+j))
		}
	}
	before := back.Clone()
	return view, func() error {
		if !back.Equal(before) {
			return fmt.Errorf("member %d: the borrowed operand's storage was written", me)
		}
		return nil
	}
}

func TestCollectivesOnStridedViews(t *testing.T) {
	const np, rows, cols = 4, 3, 2
	block := func(me int) *lin.Matrix { v, _ := stridedBlock(me, rows, cols); return v.Clone() }
	sum := lin.NewMatrix(rows, cols)
	for r := 0; r < np; r++ {
		sum.Add(block(r))
	}
	onBothLinks(t, func(t *testing.T, run conformancetest.Runner) {
		_, err := run(np, 20*time.Second, func(p transport.Proc) error {
			w := p.World()
			me := w.Index()
			a, untouched := stridedBlock(me, rows, cols)
			expect := func(what string, got, want *lin.Matrix) error {
				if got == nil || !got.Equal(want) {
					return fmt.Errorf("member %d: %s gave %v, want %v", me, what, got, want)
				}
				return nil
			}

			got, err := Allreduce(w, a, nil)
			if err != nil {
				return err
			}
			if err := expect("Allreduce", got, sum); err != nil {
				return err
			}
			got, err = Reduce(w, 2, a, nil)
			if err != nil {
				return err
			}
			if me != 2 && got != nil {
				return fmt.Errorf("member %d: Reduce returned a matrix off the root", me)
			}
			if me == 2 {
				if err := expect("Reduce", got, sum); err != nil {
					return err
				}
			}
			if got, err = Bcast(w, 1, a, nil, rows, cols); err != nil {
				return err
			}
			if err := expect("Bcast", got, block(1)); err != nil {
				return err
			}
			if got, err = Exchange(w, me^1, a, nil); err != nil {
				return err
			}
			if err := expect("Exchange", got, block(me^1)); err != nil {
				return err
			}
			if err := Send(w, (me+1)%np, 3, a); err != nil {
				return err
			}
			if got, err = Recv(w, (me+np-1)%np, 3, rows, cols); err != nil {
				return err
			}
			if err := expect("Recv", got, block((me+np-1)%np)); err != nil {
				return err
			}

			// The layout-aware three: members' views are the cyclic blocks
			// of one 2×2-distributed matrix, or its stacked row blocks.
			pieces := []*lin.Matrix{block(0), block(1), block(2), block(3)}
			cyclic, err := AssembleGlobal(2*rows, 2*cols, 2, 2, pieces)
			if err != nil {
				return err
			}
			if got, err = Allgather(w, a, nil, nil, 2*rows, 2*cols, 2, 2); err != nil {
				return err
			}
			if err := expect("Allgather", got, cyclic); err != nil {
				return err
			}
			if got, err = Gather(w, a, 2*rows, 2*cols, 2, 2); err != nil {
				return err
			}
			if me == 0 {
				if err := expect("Gather", got, cyclic); err != nil {
					return err
				}
			}
			stacked := lin.NewMatrix(np*rows, cols)
			for r, b := range pieces {
				stacked.View(r*rows, 0, rows, cols).CopyFrom(b)
			}
			if got, err = GatherRows(w, a, np*rows, cols); err != nil {
				return err
			}
			if me == 0 {
				if err := expect("GatherRows", got, stacked); err != nil {
					return err
				}
			} else if got != nil {
				return fmt.Errorf("member %d: GatherRows returned a matrix off member 0", me)
			}
			return untouched()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBcastRootKeepsOperandOthersOwnResult(t *testing.T) {
	// The ownership rule's one exception and its rule: the root gets the
	// very matrix it passed, strided or not; every other member gets a
	// matrix of its own, so scribbling on it reaches neither the root's
	// operand nor another member's result.
	const np, root, rows, cols = 3, 1, 2, 3
	onBothLinks(t, func(t *testing.T, run conformancetest.Runner) {
		_, err := run(np, 20*time.Second, func(p transport.Proc) error {
			w := p.World()
			me := w.Index()
			var a *lin.Matrix
			untouched := func() error { return nil }
			if me == root {
				a, untouched = stridedBlock(me, rows, cols)
			}
			got, err := Bcast(w, root, a, nil, rows, cols)
			if err != nil {
				return err
			}
			if me == root && got != a {
				return fmt.Errorf("root got %p back, passed %p", got, a)
			}
			if me != root {
				for i := range got.Data {
					got.Data[i] = float64(-me)
				}
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			if me != root {
				for _, v := range got.Data {
					if v != float64(-me) {
						return fmt.Errorf("member %d: result shared with another member: %v", me, got.Data)
					}
				}
			}
			return untouched()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestCollectiveShapeMismatchIsAnError(t *testing.T) {
	// A disagreement about a shape is reported by at least one member as
	// a plain error naming the sizes — never a panic, never a hang. Which
	// member's error the run returns is the backend's choice (over TCP the
	// coordinator's own, rank 0's, when it has one), so each case makes
	// member 0 or exactly one other fail and names what the failing
	// members' messages share.
	shaped := func(me int) *lin.Matrix {
		if me == 2 {
			return lin.NewMatrix(2, 3)
		}
		return lin.NewMatrix(2, 2)
	}
	for _, tc := range []struct {
		name, mentions string
		call           func(w transport.Comm) error
	}{
		{"Allreduce", "length mismatch", func(w transport.Comm) error { _, err := Allreduce(w, shaped(w.Index()), nil); return err }},
		{"Reduce", "length mismatch", func(w transport.Comm) error { _, err := Reduce(w, 1, shaped(w.Index()), nil); return err }},
		{"Bcast", "2x2", func(w transport.Comm) error { _, err := Bcast(w, 2, shaped(w.Index()), nil, 2, 2); return err }},
		{"BcastNilRoot", "2x2", func(w transport.Comm) error { _, err := Bcast(w, 2, nil, nil, 2, 2); return err }},
		{"Exchange", "Unflatten got", func(w transport.Comm) error { _, err := Exchange(w, w.Index()^2, shaped(w.Index()), nil); return err }},
		{"Recv", "want 6", func(w transport.Comm) error {
			if err := Send(w, w.Index()^1, 9, lin.NewMatrix(2, 2)); err != nil {
				return err
			}
			_, err := Recv(w, w.Index()^1, 9, 3, 2)
			return err
		}},
		{"Allgather", "want 1x2", func(w transport.Comm) error {
			_, err := Allgather(w, shaped(w.Index()), nil, nil, 2, 4, 2, 2)
			return err
		}},
		{"GatherRows", "want 2x2", func(w transport.Comm) error { _, err := GatherRows(w, lin.NewMatrix(2, 3), 8, 2); return err }},
		{"GatherRowsIndivisible", "not divisible", func(w transport.Comm) error { _, err := GatherRows(w, lin.NewMatrix(2, 2), 9, 2); return err }},
	} {
		tc := tc // a worker may still be in its body when a failed run returns
		t.Run(tc.name, func(t *testing.T) {
			onBothLinks(t, func(t *testing.T, run conformancetest.Runner) {
				const timeout = 20 * time.Second
				start := time.Now()
				_, err := run(4, timeout, func(p transport.Proc) error { return tc.call(p.World()) })
				if err == nil || !strings.Contains(err.Error(), tc.mentions) || strings.Contains(err.Error(), "panicked") {
					t.Fatalf("want a plain error mentioning %q, got: %v", tc.mentions, err)
				}
				if d := time.Since(start); d > timeout/2 {
					t.Fatalf("the mismatch took %v to surface", d)
				}
			})
		})
	}
}

func TestCollectivesOnOneMember(t *testing.T) {
	// Alone in a communicator nothing moves, and the rule still holds:
	// Bcast's root gets its operand, everything else a copy of its own.
	onBothLinks(t, func(t *testing.T, run conformancetest.Runner) {
		st, err := run(1, 20*time.Second, func(p transport.Proc) error {
			w := p.World()
			a, untouched := stridedBlock(0, 4, 2)
			want := a.Clone()
			if got, err := Bcast(w, 0, a, nil, 4, 2); err != nil {
				return err
			} else if got != a {
				return fmt.Errorf("Bcast gave %p, passed %p", got, a)
			}
			for name, call := range map[string]func() (*lin.Matrix, error){
				"Reduce":     func() (*lin.Matrix, error) { return Reduce(w, 0, a, nil) },
				"Allreduce":  func() (*lin.Matrix, error) { return Allreduce(w, a, nil) },
				"Exchange":   func() (*lin.Matrix, error) { return Exchange(w, 0, a, nil) },
				"Gather":     func() (*lin.Matrix, error) { return Gather(w, a, 4, 2, 1, 1) },
				"Allgather":  func() (*lin.Matrix, error) { return Allgather(w, a, nil, nil, 4, 2, 1, 1) },
				"GatherRows": func() (*lin.Matrix, error) { return GatherRows(w, a, 4, 2) },
				"SendRecv": func() (*lin.Matrix, error) {
					if err := Send(w, 0, 1, a); err != nil {
						return nil, err
					}
					return Recv(w, 0, 1, 4, 2)
				},
			} {
				got, err := call()
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !got.Equal(want) {
					return fmt.Errorf("%s gave %v, want %v", name, got, want)
				}
				got.Zero() // a result is the caller's to overwrite
			}
			return untouched()
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxMsgs != 2 {
			// Only the self Send/Recv pair is traffic; a collective alone
			// in its communicator is free.
			t.Errorf("one-member collectives charged %d messages, want the self send and recv only", st.MaxMsgs)
		}
	})
}

func TestCollectivesIntoDestinations(t *testing.T) {
	// The destination clause of the ownership rule: a destination is the
	// caller's before the call and is the result after it — the very
	// matrix, nothing allocated — whether the operand is compact or a
	// strided view, and the operand's storage is left as it was. Round
	// after round into the same destinations with changing data, so that a
	// buffer recycled while still referenced would show.
	const np, rows, cols = 4, 3, 2
	onBothLinks(t, func(t *testing.T, run conformancetest.Runner) {
		_, err := run(np, 20*time.Second, func(p transport.Proc) error {
			w := p.World()
			me := w.Index()
			dst := func() *lin.Matrix { return lin.NewMatrix(rows, cols) }
			bc, red, all, ex := dst(), dst(), dst(), dst()
			wire, global := lin.NewMatrix(2*cols, 2*rows), lin.NewMatrix(2*rows, 2*cols)
			for round := 0; round < 20; round++ {
				block := func(r int) *lin.Matrix { v, _ := stridedBlock(r+10*round, rows, cols); return v.Clone() }
				a, untouched := stridedBlock(me+10*round, rows, cols)
				if round%2 == 1 {
					a, untouched = a.Clone(), func() error { return nil }
				}
				sum := lin.NewMatrix(rows, cols)
				for r := 0; r < np; r++ {
					sum.Add(block(r))
				}
				is := func(what string, got, into, want *lin.Matrix) error {
					if got != into {
						return fmt.Errorf("member %d round %d: %s returned %p, not its destination %p", me, round, what, got, into)
					}
					if !got.Equal(want) {
						return fmt.Errorf("member %d round %d: %s gave %v, want %v", me, round, what, got, want)
					}
					return nil
				}
				root := round % np
				got, err := Bcast(w, root, a, bc, rows, cols)
				if err != nil {
					return err
				}
				if me == root {
					if got != a {
						return fmt.Errorf("round %d: Bcast root got %p back, passed %p", round, got, a)
					}
				} else if err := is("Bcast", got, bc, block(root)); err != nil {
					return err
				}
				if got, err = Reduce(w, root, a, red); err != nil {
					return err
				}
				if me != root && got != nil {
					return fmt.Errorf("member %d: Reduce returned a matrix off the root", me)
				}
				if me == root {
					if err := is("Reduce", got, red, sum); err != nil {
						return err
					}
				}
				if got, err = Allreduce(w, a, all); err != nil {
					return err
				}
				if err := is("Allreduce", got, all, sum); err != nil {
					return err
				}
				if got, err = Exchange(w, me^1, a, ex); err != nil {
					return err
				}
				if err := is("Exchange", got, ex, block(me^1)); err != nil {
					return err
				}
				cyclic, err := AssembleGlobal(2*rows, 2*cols, 2, 2, []*lin.Matrix{block(0), block(1), block(2), block(3)})
				if err != nil {
					return err
				}
				if got, err = Allgather(w, a, wire, global, 2*rows, 2*cols, 2, 2); err != nil {
					return err
				}
				if err := is("Allgather", got, global, cyclic); err != nil {
					return err
				}
				// Earlier results survived the later calls.
				if err := is("Allreduce, after the rest,", all, all, sum); err != nil {
					return err
				}
				if err := untouched(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBadDestinationIsAnError(t *testing.T) {
	// A destination of the wrong shape, or one that is a strided view —
	// a result is written as one run of elements — is refused by name on
	// the member that brought it, before it moves anything.
	_, err := simmpi.Run(1, func(p *simmpi.Proc) error {
		w := p.World()
		a := lin.NewMatrix(2, 3)
		strided := lin.NewMatrix(4, 5).View(1, 1, 2, 3)
		for name, call := range map[string]func(dst *lin.Matrix) (*lin.Matrix, error){
			"Reduce":    func(dst *lin.Matrix) (*lin.Matrix, error) { return Reduce(w, 0, a, dst) },
			"Allreduce": func(dst *lin.Matrix) (*lin.Matrix, error) { return Allreduce(w, a, dst) },
			"Exchange":  func(dst *lin.Matrix) (*lin.Matrix, error) { return Exchange(w, 0, a, dst) },
			"Bcast":     func(dst *lin.Matrix) (*lin.Matrix, error) { return Bcast(w, 0, a, dst, 2, 3) },
			"Allgather": func(dst *lin.Matrix) (*lin.Matrix, error) { return Allgather(w, a, nil, dst, 2, 3, 1, 1) },
			"Allgather wire": func(dst *lin.Matrix) (*lin.Matrix, error) {
				return Allgather(w, a, dst, nil, 2, 3, 1, 1)
			},
		} {
			for what, dst := range map[string]*lin.Matrix{"3x2": lin.NewMatrix(3, 3), "strided": strided} {
				if _, err := call(dst); err == nil || !strings.Contains(err.Error(), "dist: ") || !strings.Contains(err.Error(), "stride") {
					return fmt.Errorf("%s into a %s destination: want a dist error naming shape and stride, got %w", name, what, err)
				}
			}
			if name == "Bcast" || name == "Allgather" {
				continue // a Bcast root never touches its destination, and Allgather's is written from wire
			}
			if _, err := call(a); err == nil || !strings.Contains(err.Error(), "overlaps") {
				return fmt.Errorf("%s into its own operand: want an overlap error, got %w", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
