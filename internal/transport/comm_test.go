package transport

//lint:allow floatcompare the tests assert the exact bits a collective returns, signed zeros included

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// fakeProc is the in-memory backend these tests run the one
// communicator over: mailboxes for a Link, a bare Ledger for a Proc,
// and collectives charged exactly what moved — so a member's counters
// after one collective are the schedule's msgs and words.
type fakeProc struct {
	Ledger
	rank  int
	boxes []*Mailbox
	world Comm
}

func (p *fakeProc) Rank() int           { return p.rank }
func (p *fakeProc) Size() int           { return len(p.boxes) }
func (p *fakeProc) World() Comm         { return p.world }
func (p *fakeProc) Compute(int64) error { return nil }

func (p *fakeProc) Send(comm uint64, dst, tag int, data []float64) error {
	return p.boxes[dst].Post(Message{Comm: comm, Src: p.rank, Tag: tag, Data: slices.Clone(data)})
}

func (p *fakeProc) Recv(comm uint64, src, tag int, dst []float64) ([]float64, error) {
	m, err := p.boxes[p.rank].Take(comm, src, tag)
	if err != nil || dst == nil || len(m.Data) > len(dst) {
		return m.Data, err
	}
	return dst[:copy(dst, m.Data)], nil
}

func (p *fakeProc) ChargeCollective(_ Op, _ int, _ int64, moved Counters) {
	p.ChargeComm(moved.Msgs, moved.Words)
}

// runFake runs body on np fake ranks and returns each rank's counters.
// The first error fails every mailbox so no rank is left waiting.
func runFake(t *testing.T, np int, body func(w Comm) error) []Counters {
	t.Helper()
	boxes := make([]*Mailbox, np)
	for i := range boxes {
		boxes[i] = NewMailbox()
	}
	procs := make([]*fakeProc, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := range procs {
		p := &fakeProc{rank: i, boxes: boxes}
		p.world = NewWorld(p, p)
		procs[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[p.rank] = body(p.world); errs[p.rank] != nil {
				for _, b := range boxes {
					b.Fail(errs[p.rank])
				}
			}
		}()
	}
	wg.Wait()
	out := make([]Counters, np)
	for i, p := range procs {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		out[i] = p.Counters()
	}
	return out
}

// block is member i's contribution: i+1 words, so gathers are unequal.
func block(i int) []float64 {
	b := make([]float64, i+1)
	for j := range b {
		b[j] = float64(10*i + j)
	}
	return b
}

// checkMoved holds each member's counters after one collective to the
// schedule's closed form.
func checkMoved(t *testing.T, name string, got []Counters, want func(i int) Counters) {
	t.Helper()
	for i, c := range got {
		if w := want(i); c.Msgs != w.Msgs || c.Words != w.Words {
			t.Errorf("%s: member %d moved (%d, %d), want (%d, %d)", name, i, c.Msgs, c.Words, w.Msgs, w.Words)
		}
	}
}

func expect(what string, got, want []float64) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s = %v, want %v", what, got, want)
	}
	return nil
}

// TestCollectivesOnLinearSchedule pins, for every group size and root,
// what each collective returns and what each member moved: the closed
// form of the linear fans both backends run today, and the table a
// logarithmic schedule will have to change on purpose.
func TestCollectivesOnLinearSchedule(t *testing.T) {
	const n = 6 // words in the equal-length payloads
	vec := func(i int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = float64(i+1) / float64(j+3) // sums depend on the order
		}
		return v
	}
	for _, p := range []int{1, 2, 3, 5} {
		var cat []float64
		sum := make([]float64, n)
		for i := 0; i < p; i++ {
			for j, v := range vec(i) {
				sum[j] += v // from zero, in member order
			}
			cat = append(cat, block(i)...)
		}
		total := int64(len(cat))
		fan := int64(p - 1)
		// rooted gives the (msgs, words) of a member of a one-way fan
		// that carries atRoot words in total and own from this member.
		rooted := func(isRoot bool, atRoot, own int64) Counters {
			if isRoot {
				return Counters{Msgs: fan, Words: atRoot}
			}
			return Counters{Msgs: 1, Words: own}
		}
		add := func(a, b Counters) Counters { return Counters{Msgs: a.Msgs + b.Msgs, Words: a.Words + b.Words} }

		for root := 0; root < p; root++ {
			check := func(op string, got []Counters, want func(i int) Counters) {
				t.Helper()
				checkMoved(t, fmt.Sprintf("P%d/root%d %s", p, root, op), got, want)
			}

			check("Bcast", runFake(t, p, func(w Comm) error {
				var in []float64
				if w.Index() == root {
					in = vec(root)
				}
				out, err := w.Bcast(root, in)
				if err != nil {
					return err
				}
				return expect("bcast", out, vec(root))
			}), func(i int) Counters { return rooted(i == root, fan*n, n) })

			check("Reduce", runFake(t, p, func(w Comm) error {
				out, err := w.Reduce(root, vec(w.Index()))
				if err != nil {
					return err
				}
				if w.Index() != root {
					return expect("reduce off root", out, nil)
				}
				return expect("reduce", out, sum)
			}), func(i int) Counters { return rooted(i == root, fan*n, n) })

			check("Gather", runFake(t, p, func(w Comm) error {
				out, err := w.Gather(root, block(w.Index()))
				if err != nil {
					return err
				}
				if w.Index() != root {
					return expect("gather off root", out, nil)
				}
				return expect("gather", out, cat)
			}), func(i int) Counters { return rooted(i == root, total-int64(root+1), int64(i+1)) })
		}

		check := func(op string, got []Counters, want func(i int) Counters) {
			t.Helper()
			checkMoved(t, fmt.Sprintf("P%d %s", p, op), got, want)
		}

		// Reduce to member 0, then Bcast from it.
		check("Allreduce", runFake(t, p, func(w Comm) error {
			out, err := w.Allreduce(vec(w.Index()))
			if err != nil {
				return err
			}
			return expect("allreduce", out, sum)
		}), func(i int) Counters { return add(rooted(i == 0, fan*n, n), rooted(i == 0, fan*n, n)) })

		// Gather on member 0, then Bcast of the concatenation.
		check("Allgather", runFake(t, p, func(w Comm) error {
			out, err := w.Allgather(block(w.Index()))
			if err != nil {
				return err
			}
			return expect("allgather", out, cat)
		}), func(i int) Counters {
			return add(rooted(i == 0, total-1, int64(i+1)), rooted(i == 0, fan*total, total))
		})

		// Empty tokens in to member 0 and out again.
		check("Barrier", runFake(t, p, func(w Comm) error { return w.Barrier() }),
			func(i int) Counters { return add(rooted(i == 0, 0, 0), rooted(i == 0, 0, 0)) })

		// Pairwise swap of unequal blocks, the odd member out with
		// itself: one message of the larger block, or nothing.
		check("Transpose", runFake(t, p, func(w Comm) error {
			partner := w.Index() ^ 1
			if partner >= p {
				partner = w.Index()
			}
			out, err := w.Transpose(partner, block(w.Index()))
			if err != nil {
				return err
			}
			return expect("transpose", out, block(partner))
		}), func(i int) Counters {
			if i^1 >= p {
				return Counters{}
			}
			return Counters{Msgs: 1, Words: int64(max(i, i^1) + 1)}
		})
	}
}

// TestMailboxTakeReleasesPayload: dequeuing must not leave the
// delivered payload referenced from the vacated slot of its queue's
// backing array, where it would stay reachable until some later post
// overwrote it.
func TestMailboxTakeReleasesPayload(t *testing.T) {
	b := NewMailbox()
	for i := 0; i < 8; i++ {
		if err := b.Post(Message{Comm: 7, Src: 1, Tag: i % 4, Data: make([]float64, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	pending := 8
	for _, tag := range []int{1, 3, 0, 2, 2, 0, 3, 1} {
		m, err := b.Take(7, 1, tag)
		if err != nil || m.Tag != tag || len(m.Data) != 8 {
			t.Fatalf("Take(tag %d) = %+v, %v", tag, m, err)
		}
		pending--
		held := 0
		for _, q := range b.queues {
			for _, slot := range q.msgs[:cap(q.msgs)] {
				if slot.Data != nil {
					held++
				}
			}
		}
		if held != pending {
			t.Fatalf("after taking tag %d: %d payloads referenced with %d pending", tag, held, pending)
		}
	}
}

// TestMailboxSteadyStateAllocatesNothing: once a key's queue exists,
// posting to it and taking from it reuse its slots — whether the taker
// keeps up or runs a few messages behind.
func TestMailboxSteadyStateAllocatesNothing(t *testing.T) {
	b := NewMailbox()
	payload := make([]float64, 4)
	round := func(depth int) {
		for key := 0; key < 3; key++ {
			for i := 0; i < depth; i++ {
				if err := b.Post(Message{Comm: 9, Src: key, Tag: -101, Data: payload}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for key := 0; key < 3; key++ {
			for i := 0; i < depth; i++ {
				if _, err := b.Take(9, key, -101); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	round(5) // the queues' first growth
	if n := testing.AllocsPerRun(100, func() { round(1); round(5) }); n != 0 {
		t.Errorf("steady Post/Take allocates %.1f objects per round, want 0", n)
	}
	// A taker that stays behind: the queue never drains, and still must
	// not grow past what is pending at once.
	for i := 0; i < 3; i++ {
		if err := b.Post(Message{Comm: 9, Src: 0, Tag: 5, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	lag := func() {
		if err := b.Post(Message{Comm: 9, Src: 0, Tag: 5, Data: payload}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Take(9, 0, 5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		lag()
	}
	if n := testing.AllocsPerRun(1000, lag); n != 0 {
		t.Errorf("a lagging taker makes Post allocate %.2f objects per message, want 0", n)
	}
}

// TestReduceStartsFromZero: a sum is 0 + p₀ + p₁ + …, so a lone −0 (or a
// column of them) comes out +0 whatever the group size — the bits every
// backend and every destination form must agree on.
func TestReduceStartsFromZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, p := range []int{1, 2, 3} {
		runFake(t, p, func(w Comm) error {
			dst := []float64{7, 7}
			for name, call := range map[string]func() ([]float64, error){
				"Allreduce":     func() ([]float64, error) { return w.Allreduce([]float64{negZero, 1}) },
				"AllreduceInto": func() ([]float64, error) { return w.AllreduceInto([]float64{negZero, 1}, dst) },
			} {
				got, err := call()
				if err != nil {
					return err
				}
				if len(got) != 2 || got[0] != 0 || math.Signbit(got[0]) || got[1] != float64(p) {
					return fmt.Errorf("%s over %d members = %v (sign bit %v), want [+0 %d]", name, p, got, math.Signbit(got[0]), p)
				}
			}
			return nil
		})
	}
}
