// Package conformancetest is the shared contract test for transport
// backends: one suite of communicator semantics — point-to-point
// ordering, tag matching, every collective, Split/Subgroup derivation,
// buffer ownership, deadline behavior — run verbatim against the
// simulated runtime and the TCP mesh. A backend that passes here is
// interchangeable under every distributed algorithm in the repository.
package conformancetest

//lint:allow floatcompare conformance asserts payloads arrive bit-identical across transports

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cacqr/internal/transport"
)

// Runner executes body on np ranks over the backend under test and
// returns the run's statistics. timeout bounds the whole run (the
// deadline subtest relies on it firing).
type Runner func(np int, timeout time.Duration, body func(p transport.Proc) error) (*transport.Stats, error)

// Run exercises the full Comm/Proc contract against the backend.
func Run(t *testing.T, run Runner) {
	t.Helper()

	ok := func(t *testing.T, np int, body func(p transport.Proc) error) *transport.Stats {
		t.Helper()
		st, err := run(np, 20*time.Second, body)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return st
	}

	t.Run("SendRecvFIFO", func(t *testing.T) {
		// Messages with the same (src, tag) arrive in send order.
		ok(t, 2, func(p transport.Proc) error {
			w := p.World()
			if p.Rank() == 0 {
				for i := 0; i < 5; i++ {
					if err := w.Send(1, 7, []float64{float64(i)}); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < 5; i++ {
				got, err := w.Recv(0, 7)
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != float64(i) {
					return fmt.Errorf("message %d: got %v", i, got)
				}
			}
			return nil
		})
	})

	t.Run("TagMatching", func(t *testing.T) {
		// A recv on one tag must not consume a pending message on
		// another, regardless of arrival order.
		ok(t, 2, func(p transport.Proc) error {
			w := p.World()
			if p.Rank() == 0 {
				if err := w.Send(1, 1, []float64{1}); err != nil {
					return err
				}
				return w.Send(1, 2, []float64{2})
			}
			got2, err := w.Recv(0, 2)
			if err != nil {
				return err
			}
			got1, err := w.Recv(0, 1)
			if err != nil {
				return err
			}
			if got1[0] != 1 || got2[0] != 2 {
				return fmt.Errorf("tag mismatch: tag1=%v tag2=%v", got1, got2)
			}
			return nil
		})
	})

	t.Run("SendToSelf", func(t *testing.T) {
		ok(t, 2, func(p transport.Proc) error {
			w := p.World()
			me := w.Index()
			if err := w.Send(me, 3, []float64{float64(me) + 0.5}); err != nil {
				return err
			}
			got, err := w.Recv(me, 3)
			if err != nil {
				return err
			}
			if got[0] != float64(me)+0.5 {
				return fmt.Errorf("self-send: got %v", got)
			}
			return nil
		})
	})

	t.Run("SendRecvExchange", func(t *testing.T) {
		// Pairwise full-duplex exchange must not deadlock and must
		// deliver both directions.
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			partner := w.Index() ^ 1
			got, err := w.SendRecv(partner, 9, []float64{float64(w.Index())})
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != float64(partner) {
				return fmt.Errorf("exchange with %d: got %v", partner, got)
			}
			return nil
		})
	})

	t.Run("Barrier", func(t *testing.T) {
		ok(t, 3, func(p transport.Proc) error {
			for i := 0; i < 3; i++ {
				if err := p.World().Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})

	t.Run("Bcast", func(t *testing.T) {
		for _, root := range []int{0, 2} {
			root := root
			t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
				ok(t, 3, func(p transport.Proc) error {
					w := p.World()
					var in []float64
					if w.Index() == root {
						in = []float64{3, 1, 4, 1, 5}
					}
					got, err := w.Bcast(root, in)
					if err != nil {
						return err
					}
					want := []float64{3, 1, 4, 1, 5}
					return expectVec(fmt.Sprintf("rank %d bcast", w.Index()), got, want)
				})
			})
		}
	})

	t.Run("Reduce", func(t *testing.T) {
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			in := []float64{float64(w.Index()), 1}
			got, err := w.Reduce(1, in)
			if err != nil {
				return err
			}
			if w.Index() == 1 {
				return expectVec("reduce", got, []float64{0 + 1 + 2 + 3, 4})
			}
			if got != nil {
				return fmt.Errorf("non-root reduce returned %v", got)
			}
			return nil
		})
	})

	t.Run("Allreduce", func(t *testing.T) {
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			got, err := w.Allreduce([]float64{1, float64(w.Index())})
			if err != nil {
				return err
			}
			return expectVec("allreduce", got, []float64{4, 6})
		})
	})

	t.Run("AllgatherUnequal", func(t *testing.T) {
		// Rank i contributes i+1 elements; the concatenation is in
		// member order on every rank.
		ok(t, 3, func(p transport.Proc) error {
			w := p.World()
			got, err := w.Allgather(ramp(w.Index()))
			if err != nil {
				return err
			}
			want := []float64{0, 10, 11, 20, 21, 22}
			return expectVec("allgather", got, want)
		})
	})

	t.Run("GatherUnequal", func(t *testing.T) {
		// Rank i contributes i+1 elements; the concatenation is in member
		// order on the root and nobody else gets anything.
		for _, root := range []int{0, 2} {
			root := root
			t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
				ok(t, 3, func(p transport.Proc) error {
					w := p.World()
					got, err := w.Gather(root, ramp(w.Index()))
					if err != nil {
						return err
					}
					if w.Index() != root {
						if got != nil {
							return fmt.Errorf("non-root gather returned %v", got)
						}
						return nil
					}
					return expectVec("gather", got, []float64{0, 10, 11, 20, 21, 22})
				})
			})
		}
	})

	t.Run("GatherInvalidRoot", func(t *testing.T) {
		// A root outside the communicator is an error on every member,
		// found locally: nobody is left waiting for a peer.
		ok(t, 3, func(p transport.Proc) error {
			w := p.World()
			for _, root := range []int{-1, w.Size()} {
				if got, err := w.Gather(root, []float64{1}); err == nil {
					return fmt.Errorf("rank %d: gather to root %d returned %v, want an error", w.Index(), root, got)
				}
			}
			return nil
		})
	})

	t.Run("GatherOnDerivedComms", func(t *testing.T) {
		// Gather routes within a Subgroup, a Split product and a
		// one-member leaf, each with its own member numbering.
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			me := float64(w.Index())
			if sub := w.Subgroup([]int{3, 1}); sub != nil {
				got, err := sub.Gather(1, []float64{me})
				if err != nil {
					return err
				}
				if sub.Index() == 1 {
					if err := expectVec("subgroup gather", got, []float64{3, 1}); err != nil {
						return err
					}
				} else if got != nil {
					return fmt.Errorf("subgroup non-root gather returned %v", got)
				}
			}
			half, err := w.Split(w.Index()%2, -w.Index())
			if err != nil {
				return err
			}
			got, err := half.Gather(0, []float64{me})
			if err != nil {
				return err
			}
			if half.Index() == 0 {
				// The negated key puts the highest parent index first.
				want := []float64{2, 0}
				if w.Index()%2 == 1 {
					want = []float64{3, 1}
				}
				if err := expectVec("split gather", got, want); err != nil {
					return err
				}
			}
			leaf, err := half.Split(half.Index(), 0)
			if err != nil {
				return err
			}
			in := []float64{me, 7}
			got, err = leaf.Gather(0, in)
			if err != nil {
				return err
			}
			if err := expectVec("leaf gather", got, in); err != nil {
				return err
			}
			got[1] = -1
			return expectVec("leaf gather payload", in, []float64{me, 7})
		})
	})

	t.Run("GatherInterleaved", func(t *testing.T) {
		// Gathers to changing roots between other collectives, with
		// user-tagged messages in flight across all of them, must each
		// see their own data only.
		ok(t, 3, func(p transport.Proc) error {
			w := p.World()
			me, next, prev := w.Index(), (w.Index()+1)%3, (w.Index()+2)%3
			if err := w.Send(next, 11, []float64{float64(100 + me)}); err != nil {
				return err
			}
			for round := 0; round < 3; round++ {
				root := round % 3
				got, err := w.Gather(root, []float64{float64(10*round + me)})
				if err != nil {
					return err
				}
				if me == root {
					base := float64(10 * round)
					if err := expectVec("gather round", got, []float64{base, base + 1, base + 2}); err != nil {
						return err
					}
				}
				all, err := w.Allgather([]float64{float64(me - round)})
				if err != nil {
					return err
				}
				r := float64(round)
				if err := expectVec("allgather round", all, []float64{-r, 1 - r, 2 - r}); err != nil {
					return err
				}
				sum, err := w.Allreduce([]float64{float64(round)})
				if err != nil {
					return err
				}
				if err := expectVec("allreduce round", sum, []float64{3 * r}); err != nil {
					return err
				}
			}
			got, err := w.Recv(prev, 11)
			if err != nil {
				return err
			}
			return expectVec("tagged message", got, []float64{float64(100 + prev)})
		})
	})

	t.Run("Ownership", func(t *testing.T) {
		// The buffer rule of the transport package: a payload is borrowed
		// for the call, a result belongs to the caller. So scribbling on a
		// result changes no payload and no other rank's result, and
		// scribbling on a payload after the call changes no result. The
		// documented exception is Bcast on its root, whose result is the
		// payload.
		const root = 1
		for _, c := range []struct {
			name string
			call func(w transport.Comm, in []float64) ([]float64, error)
		}{
			{"Bcast", func(w transport.Comm, in []float64) ([]float64, error) { return w.Bcast(root, in) }},
			{"Reduce", func(w transport.Comm, in []float64) ([]float64, error) { return w.Reduce(root, in) }},
			{"Allreduce", func(w transport.Comm, in []float64) ([]float64, error) { return w.Allreduce(in) }},
			{"Gather", func(w transport.Comm, in []float64) ([]float64, error) { return w.Gather(root, in) }},
			{"Allgather", func(w transport.Comm, in []float64) ([]float64, error) { return w.Allgather(in) }},
			{"Transpose", func(w transport.Comm, in []float64) ([]float64, error) { return w.Transpose(w.Index()^1, in) }},
			{"TransposeSelf", func(w transport.Comm, in []float64) ([]float64, error) { return w.Transpose(w.Index(), in) }},
			{"SendRecv", func(w transport.Comm, in []float64) ([]float64, error) { return w.SendRecv(w.Index()^1, 5, in) }},
			{"SendThenRecv", func(w transport.Comm, in []float64) ([]float64, error) {
				if err := w.Send(w.Index()^1, 6, in); err != nil {
					return nil, err
				}
				return w.Recv(w.Index()^1, 6)
			}},
		} {
			c := c
			t.Run(c.name, func(t *testing.T) {
				ok(t, 4, func(p transport.Proc) error {
					w := p.World()
					me := float64(w.Index() + 1)
					in := []float64{me, 2 * me, 3 * me}
					sent := append([]float64(nil), in...)
					out, err := c.call(w, in)
					if err != nil {
						return err
					}
					aliased := c.name == "Bcast" && w.Index() == root
					got := append([]float64(nil), out...)
					for i := range out {
						out[i] = -me
					}
					if err := w.Barrier(); err != nil {
						return err
					}
					if !aliased {
						if err := expectVec("payload after results were overwritten", in, sent); err != nil {
							return err
						}
					}
					for i := range out {
						if out[i] != -me {
							return fmt.Errorf("rank %d: result overwritten by another rank: %v", w.Index(), out)
						}
					}
					copy(out, got)
					if !aliased {
						for i := range in {
							in[i] = -100
						}
					}
					if err := w.Barrier(); err != nil {
						return err
					}
					return expectVec("result after payloads were overwritten", out, got)
				})
			})
		}
	})

	t.Run("Destination", func(t *testing.T) { runDestination(t, run) })

	t.Run("Transpose", func(t *testing.T) {
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			partner := (w.Index() + 2) % 4
			got, err := w.Transpose(partner, []float64{float64(w.Index() * 100)})
			if err != nil {
				return err
			}
			return expectVec("transpose", got, []float64{float64(partner * 100)})
		})
	})

	t.Run("TransposeSelf", func(t *testing.T) {
		ok(t, 2, func(p transport.Proc) error {
			got, err := p.World().Transpose(p.World().Index(), []float64{42})
			if err != nil {
				return err
			}
			return expectVec("self-transpose", got, []float64{42})
		})
	})

	t.Run("SplitColorsAndKeys", func(t *testing.T) {
		// 6 ranks → two colors (evens, odds); keys reverse the order
		// within each group.
		ok(t, 6, func(p transport.Proc) error {
			w := p.World()
			color := w.Index() % 2
			key := -w.Index() // reverse order
			sub, err := w.Split(color, key)
			if err != nil {
				return err
			}
			if sub.Size() != 3 {
				return fmt.Errorf("split size %d, want 3", sub.Size())
			}
			// Highest parent index sorts first under the negated key.
			wantGlobal := []int{4 - 2*0, 2, 0}
			if color == 1 {
				wantGlobal = []int{5, 3, 1}
			}
			for i, g := range wantGlobal {
				if sub.GlobalRank(i) != g {
					return fmt.Errorf("color %d member %d: global %d, want %d", color, i, sub.GlobalRank(i), g)
				}
			}
			// The child communicator must route data independently of
			// the parent: an allreduce over the group sums group
			// members only.
			got, err := sub.Allreduce([]float64{float64(w.Index())})
			if err != nil {
				return err
			}
			want := []float64{0 + 2 + 4}
			if color == 1 {
				want = []float64{1 + 3 + 5}
			}
			return expectVec("split allreduce", got, want)
		})
	})

	t.Run("SubgroupMembership", func(t *testing.T) {
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			sub := w.Subgroup([]int{3, 1})
			switch w.Index() {
			case 1, 3:
				if sub == nil {
					return fmt.Errorf("rank %d: member got nil subgroup", w.Index())
				}
				if sub.Size() != 2 {
					return fmt.Errorf("subgroup size %d", sub.Size())
				}
				wantIdx := 1
				if w.Index() == 3 {
					wantIdx = 0
				}
				if sub.Index() != wantIdx {
					return fmt.Errorf("rank %d: subgroup index %d, want %d", w.Index(), sub.Index(), wantIdx)
				}
				got, err := sub.Allgather([]float64{float64(w.Index())})
				if err != nil {
					return err
				}
				return expectVec("subgroup allgather", got, []float64{3, 1})
			default:
				if sub != nil {
					return fmt.Errorf("rank %d: non-member got non-nil subgroup", w.Index())
				}
				return nil
			}
		})
	})

	t.Run("NestedSplit", func(t *testing.T) {
		// Split the world, then split the child again; leaf groups of
		// one rank must still run collectives.
		ok(t, 4, func(p transport.Proc) error {
			w := p.World()
			half, err := w.Split(w.Index()/2, w.Index())
			if err != nil {
				return err
			}
			leaf, err := half.Split(half.Index(), 0)
			if err != nil {
				return err
			}
			if leaf.Size() != 1 {
				return fmt.Errorf("leaf size %d", leaf.Size())
			}
			got, err := leaf.Allreduce([]float64{float64(w.Index())})
			if err != nil {
				return err
			}
			return expectVec("leaf allreduce", got, []float64{float64(w.Index())})
		})
	})

	t.Run("CollectiveSequence", func(t *testing.T) {
		// Back-to-back collectives on one communicator must not bleed
		// into each other.
		ok(t, 3, func(p transport.Proc) error {
			w := p.World()
			for round := 0; round < 3; round++ {
				got, err := w.Allreduce([]float64{float64(round)})
				if err != nil {
					return err
				}
				if got[0] != float64(3*round) {
					return fmt.Errorf("round %d: got %v", round, got)
				}
				gathered, err := w.Allgather([]float64{float64(round*10 + w.Index())})
				if err != nil {
					return err
				}
				want := []float64{float64(round * 10), float64(round*10 + 1), float64(round*10 + 2)}
				if err := expectVec("gather round", gathered, want); err != nil {
					return err
				}
			}
			return nil
		})
	})

	t.Run("StatsPopulated", func(t *testing.T) {
		st := ok(t, 2, func(p transport.Proc) error {
			if err := p.Compute(1000); err != nil {
				return err
			}
			_, err := p.World().Allreduce([]float64{1})
			return err
		})
		if st.MaxFlops < 1000 {
			t.Errorf("MaxFlops = %d, want >= 1000", st.MaxFlops)
		}
		if st.TotalMsgs == 0 || st.TotalWords == 0 {
			t.Errorf("traffic counters empty: msgs=%d words=%d", st.TotalMsgs, st.TotalWords)
		}
		if len(st.PerRank) != 2 {
			t.Errorf("PerRank has %d entries, want 2", len(st.PerRank))
		}
	})

	t.Run("ErrorPropagates", func(t *testing.T) {
		// One rank failing must abort the run with its error, even
		// though another rank is blocked in a recv.
		_, err := run(2, 20*time.Second, func(p transport.Proc) error {
			if p.Rank() == 1 {
				return fmt.Errorf("deliberate rank failure")
			}
			_, rerr := p.World().Recv(1, 5)
			return rerr
		})
		if err == nil {
			t.Fatalf("run with failing rank returned nil error")
		}
	})

	t.Run("ReduceLengthMismatch", func(t *testing.T) {
		// Members that disagree on the vector length are a caller bug
		// the backend reports as a plain error naming both lengths —
		// not a panic, and without sitting out the run deadline while
		// the other members wait for a result.
		const timeout = 20 * time.Second
		for _, c := range []struct {
			name string
			call func(w transport.Comm, in []float64) ([]float64, error)
		}{
			{"Reduce", func(w transport.Comm, in []float64) ([]float64, error) { return w.Reduce(1, in) }},
			{"Allreduce", func(w transport.Comm, in []float64) ([]float64, error) { return w.Allreduce(in) }},
		} {
			start := time.Now()
			_, err := run(3, timeout, func(p transport.Proc) error {
				w := p.World()
				in := make([]float64, 3)
				if w.Index() == 2 {
					in = make([]float64, 4)
				}
				_, err := c.call(w, in)
				return err
			})
			if err == nil {
				t.Fatalf("%s of 3-, 3- and 4-element vectors returned nil error", c.name)
			}
			msg := err.Error()
			if !strings.Contains(msg, "length mismatch: 4 vs 3") || strings.Contains(msg, "panicked") {
				t.Fatalf("%s: want a plain length-mismatch error naming 4 and 3, got: %v", c.name, err)
			}
			if elapsed := time.Since(start); elapsed > timeout/2 {
				t.Fatalf("%s: mismatch took %v to surface", c.name, elapsed)
			}
		}
	})

	t.Run("DeadlineUnblocksRecv", func(t *testing.T) {
		// A recv that can never match must return once the run
		// deadline passes instead of hanging.
		start := time.Now()
		_, err := run(2, 500*time.Millisecond, func(p transport.Proc) error {
			if p.Rank() == 1 {
				_, rerr := p.World().Recv(0, 99)
				return rerr
			}
			return nil
		})
		if err == nil {
			t.Fatalf("stuck recv did not error out")
		}
		if elapsed := time.Since(start); elapsed > 15*time.Second {
			t.Fatalf("deadline took %v to fire", elapsed)
		}
	})
}

// ramp is member i's block in the unequal-length gathers: i+1 values
// 10i, 10i+1, ….
func ramp(i int) []float64 {
	in := make([]float64, i+1)
	for j := range in {
		in[j] = float64(10*i + j)
	}
	return in
}

func expectVec(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: got %v, want %v", what, got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			return fmt.Errorf("%s: got %v, want %v", what, got, want)
		}
	}
	return nil
}
