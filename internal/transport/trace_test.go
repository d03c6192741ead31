package transport_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cacqr/internal/obs"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
)

// Traced must record one collective span per collective call — with
// payload bytes (8 per word) and peer count — on every communicator
// derived from the wrapped Proc, including Split products, and must
// expose the rank span through the obs.SpanCarrier interface so kernel
// code can hang stage spans on it.
func TestTracedCollectiveSpans(t *testing.T) {
	const np = 4
	tr := obs.NewTracer(obs.TracerOptions{})
	trace, _ := tr.Start(context.Background(), "run")
	rankSpans := make([]*obs.Span, np)
	for i := range rankSpans {
		rankSpans[i] = trace.Root().Rank(fmt.Sprintf("rank-%d", i))
	}

	if _, err := simmpi.Run(np, func(sp *simmpi.Proc) error {
		p := transport.Traced(sp, rankSpans[sp.Rank()])

		//lint:ignore obssafety the test asserts the traced proc actually carries a span, which is the point
		if st := obs.StagesOf(p); st == nil {
			return fmt.Errorf("rank %d: traced proc is not a SpanCarrier", sp.Rank())
		}
		w := p.World()
		if got := w.Proc(); got != p {
			return fmt.Errorf("rank %d: world comm does not return the traced proc", sp.Rank())
		}

		// Only the root hands the payload in, as in the algorithms
		// (mm3d's aRoot/bRoot, CACQR lines 1 and 5); every member's
		// span must still carry the broadcast length.
		var payload []float64
		if w.Index() == 0 {
			payload = make([]float64, 128)
		}
		if _, err := w.Bcast(0, payload); err != nil {
			return err
		}
		if _, err := w.Allreduce(make([]float64, 64)); err != nil {
			return err
		}
		if _, err := w.Gather(1, make([]float64, 32)); err != nil {
			return err
		}
		// A derived communicator must stay traced.
		sub, err := w.Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		if got := sub.Proc(); got != p {
			return fmt.Errorf("rank %d: split comm lost the traced proc", sp.Rank())
		}
		_, err = sub.Allreduce(make([]float64, 16))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range rankSpans {
		sp.End()
	}
	trace.Finish()

	td, ok := tr.Get(trace.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(td.Root.Children) != np {
		t.Fatalf("root has %d rank spans, want %d", len(td.Root.Children), np)
	}
	// Every rank sees the same collective sequence; bytes are the
	// payload each rank handed in (for bcast: received), 8 bytes per
	// float64 word.
	want := []struct {
		op    string
		bytes int64
		peers int64
	}{
		{"bcast", 128 * 8, np},
		{"allreduce", 64 * 8, np},
		{"gather", 32 * 8, np},
		{"allreduce", 16 * 8, np / 2},
	}
	for _, rank := range td.Root.Children {
		if rank.Kind != obs.KindRank {
			t.Fatalf("%s: kind %q, want rank", rank.Name, rank.Kind)
		}
		if len(rank.Children) != len(want) {
			t.Fatalf("%s: %d collective spans, want %d", rank.Name, len(rank.Children), len(want))
		}
		for i, w := range want {
			c := rank.Children[i]
			if c.Kind != obs.KindCollective || c.Name != w.op {
				t.Fatalf("%s child %d = %s/%s, want collective/%s", rank.Name, i, c.Kind, c.Name, w.op)
			}
			if got := c.Attrs["bytes"]; got != w.bytes {
				t.Fatalf("%s %s: bytes = %v, want %d", rank.Name, w.op, got, w.bytes)
			}
			if got := c.Attrs["peers"]; got != w.peers {
				t.Fatalf("%s %s: peers = %v, want %d", rank.Name, w.op, got, w.peers)
			}
		}
	}

	// The finished tree folds into the per-op collective counters.
	var b strings.Builder
	tr.Metrics().WritePrometheus(&b)
	for _, want := range []string{
		fmt.Sprintf(`cacqr_collectives_total{op="gather"} %d`, np),
		fmt.Sprintf(`cacqr_collective_payload_bytes_total{op="gather"} %d`, np*32*8),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// A nil span must disable the decorator entirely: Traced returns the
// Proc unchanged, so the untraced path pays nothing.
func TestTracedNilSpanIsIdentity(t *testing.T) {
	if _, err := simmpi.Run(1, func(sp *simmpi.Proc) error {
		p := transport.Traced(sp, nil)
		if p != transport.Proc(sp) {
			return fmt.Errorf("Traced(p, nil) wrapped anyway: %T", p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
