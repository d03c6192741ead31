package costmodel_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
)

// gridCase is one grid-family variant on one c × d × c grid, with the
// costmodel table its ledger must reproduce.
type gridCase struct {
	variant      string
	c, d         int
	inverseDepth int
}

const phaseM, phaseN, phaseB = 64, 16, 8

// gridCases are the four variants on 1×4×1, 2×2×2 and 2×4×2, plus one
// InverseDepth = 1 run.
func gridCases() []gridCase {
	var out []gridCase
	for _, v := range []string{"ca-cqr", "ca-cqr2", "shifted-cqr3", "panel"} {
		for _, g := range [][2]int{{1, 4}, {2, 2}, {2, 4}} {
			out = append(out, gridCase{variant: v, c: g[0], d: g[1]})
		}
	}
	return append(out, gridCase{variant: "ca-cqr2", c: 2, d: 2, inverseDepth: 1})
}

func (tc gridCase) String() string {
	return fmt.Sprintf("%s/%dx%dx%d/inv%d", tc.variant, tc.c, tc.d, tc.c, tc.inverseDepth)
}

// lines is the costmodel table of tc on the phase test's shape.
func (tc gridCase) lines() (map[string]costmodel.Cost, error) {
	prm := costmodel.CACQRParams{C: tc.c, D: tc.d, InverseDepth: tc.inverseDepth}
	switch tc.variant {
	case "ca-cqr":
		return costmodel.CACQRLines(phaseM, phaseN, prm)
	case "ca-cqr2":
		return costmodel.CACQR2Lines(phaseM, phaseN, prm)
	case "shifted-cqr3":
		return costmodel.ShiftedCACQR3Lines(phaseM, phaseN, prm)
	}
	return costmodel.PanelCACQR2Lines(phaseM, phaseN, phaseB, prm)
}

// run executes tc on the simulator under unit costs. wrap, if set,
// decorates each rank's Proc before the grid is built; after, if set,
// sees the rank's own Proc once the factorization has returned.
func (tc gridCase) run(wrap func(p *simmpi.Proc) transport.Proc, after func(p *simmpi.Proc) error) (*simmpi.Stats, error) {
	a := lin.RandomMatrix(phaseM, phaseN, 31)
	prm := core.Params{InverseDepth: tc.inverseDepth}
	return simmpi.RunWithOptions(tc.c*tc.d*tc.c, simmpi.Options{
		Cost:    simmpi.CostParams{Alpha: 1, Beta: 1, Gamma: 1},
		Timeout: 120 * time.Second,
	}, func(p *simmpi.Proc) error {
		var tp transport.Proc = p
		if wrap != nil {
			tp = wrap(p)
		}
		g, err := grid.New(tp.World(), tc.c, tc.d)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
		if err != nil {
			return err
		}
		switch tc.variant {
		case "ca-cqr":
			_, _, err = core.CACQR(g, ad.Local, phaseM, phaseN, prm)
		case "ca-cqr2":
			_, _, err = core.CACQR2(g, ad.Local, phaseM, phaseN, prm)
		case "shifted-cqr3":
			_, _, err = core.ShiftedCACQR3(g, ad.Local, phaseM, phaseN, prm)
		default:
			_, _, err = core.PanelCACQR2(g, ad.Local, phaseM, phaseN, phaseB, prm)
		}
		if err != nil || after == nil {
			return err
		}
		return after(p)
	})
}

// TestCACQRPerLineMeasuredMatchesModel is the strongest validation of
// Tables V and VI: every grid variant charges each line under its
// costmodel Line phase, and the measured per-phase counters must equal
// the model's per-line table exactly, label by label, with no phase
// the table lacks and no line the run never entered.
func TestCACQRPerLineMeasuredMatchesModel(t *testing.T) {
	for _, tc := range gridCases() {
		t.Run(tc.String(), func(t *testing.T) {
			st, err := tc.run(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.lines()
			if err != nil {
				t.Fatal(err)
			}
			if got, w := keys(st.Phases), keys(want); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("phases %v, model lines %v", got, w)
			}
			for label, w := range want {
				got := st.Phases[label]
				if got.Msgs != w.Msgs || got.Words != w.Words || got.Flops != w.TotalFlops() {
					t.Errorf("%s: measured (α=%d β=%d γ=%d) vs model (α=%d β=%d γ=%d)",
						label, got.Msgs, got.Words, got.Flops, w.Msgs, w.Words, w.TotalFlops())
				}
			}
		})
	}
}

// TestGridPhasesSumToCounters: no grid charge sits outside a line. On
// every rank, the phases sum to the rank's counters — the fold and the
// panel's trailing update included.
func TestGridPhasesSumToCounters(t *testing.T) {
	for _, tc := range gridCases() {
		t.Run(tc.String(), func(t *testing.T) {
			if _, err := tc.run(nil, func(p *simmpi.Proc) error {
				var sum transport.Counters
				for _, c := range p.Phases() {
					sum.Msgs += c.Msgs
					sum.Words += c.Words
					sum.Flops += c.Flops
				}
				all := p.Counters()
				if sum.Msgs != all.Msgs || sum.Words != all.Words || sum.Flops != all.Flops {
					return fmt.Errorf("rank %d: phases sum to %d/%d/%d, counters %d/%d/%d",
						p.Rank(), sum.Msgs, sum.Words, sum.Flops, all.Msgs, all.Words, all.Flops)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// phaseLog records the labels a rank's phase switches name, in order.
type phaseLog struct {
	transport.Proc
	labels []string
}

func (l *phaseLog) SetPhase(label string) string {
	l.labels = append(l.labels, label)
	return l.Proc.SetPhase(label)
}

// TestTracedStagesAreThePhases: on a traced rank every phase switch is
// a stage switch. Under the rank span the stage spans follow the
// non-empty phase switches in order, one per switch and named by its
// label, never overlap, and their msgs/words/flops sum to the rank's
// counters. A rank whose Proc was not wrapped records no span at all.
func TestTracedStagesAreThePhases(t *testing.T) {
	for _, tc := range []gridCase{{variant: "ca-cqr2", c: 2, d: 2}, {variant: "panel", c: 2, d: 2}} {
		t.Run(tc.String(), func(t *testing.T) {
			np := tc.c * tc.d * tc.c
			tr := obs.NewTracer(obs.TracerOptions{})
			trace, _ := tr.Start(context.Background(), "run")
			rankSpans := make([]*obs.Span, np)
			logs := make([]*phaseLog, np)
			for i := range rankSpans {
				rankSpans[i] = trace.Root().Rank(fmt.Sprintf("rank-%d", i))
			}
			st, err := tc.run(func(p *simmpi.Proc) transport.Proc {
				if p.Rank()%2 == 1 {
					return p // untraced
				}
				logs[p.Rank()] = &phaseLog{Proc: p}
				return transport.Traced(logs[p.Rank()], rankSpans[p.Rank()])
			}, nil)
			if err != nil {
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
			for r, rank := range td.Root.Children {
				if r%2 == 1 {
					if len(rank.Children) != 0 {
						t.Errorf("untraced rank %d recorded %d spans", r, len(rank.Children))
					}
					continue
				}
				var want []string
				for _, l := range logs[r].labels {
					if l != "" {
						want = append(want, l)
					}
				}
				var stages []obs.SpanData
				var sum transport.Counters
				for _, c := range rank.Children {
					if c.Kind != obs.KindStage {
						continue
					}
					stages = append(stages, c)
					msgs, _ := c.Attrs["msgs"].(int64)
					words, _ := c.Attrs["words"].(int64)
					flops, _ := c.Attrs["flops"].(int64)
					sum.Msgs += msgs
					sum.Words += words
					sum.Flops += flops
				}
				if len(stages) != len(want) {
					t.Fatalf("rank %d: %d stage spans for %d phase switches", r, len(stages), len(want))
				}
				for i, s := range stages {
					if s.Name != want[i] {
						t.Fatalf("rank %d: stage %d is %q, phase switch %d named %q", r, i, s.Name, i, want[i])
					}
					if i > 0 && stages[i-1].Start+stages[i-1].Duration > s.Start {
						t.Errorf("rank %d: stage %d (%s) overlaps stage %d", r, i-1, stages[i-1].Name, i)
					}
				}
				all := st.PerRank[r]
				if sum.Msgs != all.Msgs || sum.Words != all.Words || sum.Flops != all.Flops {
					t.Errorf("rank %d: stage spans sum to %d/%d/%d, counters %d/%d/%d",
						r, sum.Msgs, sum.Words, sum.Flops, all.Msgs, all.Words, all.Flops)
				}
			}
		})
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
