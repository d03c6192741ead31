//go:build !race

package cacqr

import (
	"runtime"
	"testing"
)

// allocsPerRun reports the bytes and objects one call of f allocates,
// averaged over runs calls after one warm-up call.
func allocsPerRun(runs int, f func()) (bytes, objects uint64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.TotalAlloc - before.TotalAlloc) / n, (after.Mallocs - before.Mallocs) / n
}

// The distributed path replicates: c-fold by design, plus one private
// copy per receiver of every collective. What it allocates per
// factorization is therefore a multiple of the input, and that multiple
// is a budget: before the output gather was rooted and the wire copies
// removed, the grid case stood at 253 MB and 21.9 k objects for a 2 MB
// input (126×) and the 1D case at 15.9 MB for 0.5 MB (30×); they are
// ≈ 72 MB / 8.9 k (34×) and ≈ 5.7 MB (11×) now, with every rank
// building only its own communicators. The race detector's
// shadow allocations make the numbers meaningless, hence the build tag.
func TestAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name         string
		m, n         int
		run          func(a *Dense) error
		inputs       uint64 // budget in multiples of the 8·m·n input bytes
		objectBudget uint64
	}{
		{"grid_c2_d4_2048x128", 2048, 128, func(a *Dense) error {
			_, err := FactorizeOnGrid(a, GridSpec{C: 2, D: 4}, Options{})
			return err
		}, 60, 11000},
		{"1d_p8_1024x64", 1024, 64, func(a *Dense) error {
			_, err := Factorize1D(a, 8, Options{})
			return err
		}, 20, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := RandomMatrix(tc.m, tc.n, 7)
			bytes, objects := allocsPerRun(3, func() {
				if err := tc.run(a); err != nil {
					t.Fatal(err)
				}
			})
			input := uint64(8 * tc.m * tc.n)
			t.Logf("%d bytes (%.1f× the input), %d objects per run", bytes, float64(bytes)/float64(input), objects)
			if bytes > tc.inputs*input {
				t.Errorf("allocates %d bytes per run, budget is %d× the %d-byte input", bytes, tc.inputs, input)
			}
			if objects > tc.objectBudget {
				t.Errorf("allocates %d objects per run, budget is %d", objects, tc.objectBudget)
			}
		})
	}
}

// A resident matrix routed to the out-of-core driver is streamed in
// place: the plan was chosen to bound memory, so the run may allocate
// its two panel buffers and O(n²) state but never a second copy of the
// input — SourceFromDense hands out views. (It used to copy, doubling
// the footprint the budget was there to cap.)
func TestStreamingDenseSourceDoesNotCopy(t *testing.T) {
	const m, n, panelRows = 8192, 32, 512
	a := RandomMatrix(m, n, 7)
	bytes, _ := allocsPerRun(3, func() {
		if _, err := FactorizeStreaming(SourceFromDense(a), nil, Options{PanelRows: panelRows}); err != nil {
			t.Fatal(err)
		}
	})
	input := uint64(8 * m * n)
	t.Logf("%d bytes per run (%.2f× the %d-byte input)", bytes, float64(bytes)/float64(input), input)
	if bytes > input/2 {
		t.Errorf("streaming a resident matrix allocates %d bytes per run — more than half the %d-byte input it must not copy", bytes, input)
	}
}
