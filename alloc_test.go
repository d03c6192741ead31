//go:build !race

package cacqr

import (
	"errors"
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

// The distributed path replicates — c-fold by design — so what one
// factorization allocates is a multiple of the input, and that multiple
// is a budget. The grid case stood at 253 MB and 21.9 k objects for a
// 2 MB input (126×) when every rank assembled Q and every collective leg
// was a fresh copy, and at 72 MB / 8.9 k (34×) once the gather was rooted
// and the wire copies removed. It is ≈ 24 MB / 1.4 k (11.5×) now that a
// rank takes its temporaries from the job's workspace and a message its
// buffer from the run's free list: 12 MB of that is the sixteen
// workspaces themselves, sized by the memory model, the rest the input
// and output blocks, the wire buffers in flight at once, and one flat
// gather buffer. The 1D case is the same path on a 1 × 8 × 1 grid:
// ≈ 5.2 MB (9.9×) and ≈ 615 objects, the eight workspaces, the scattered
// row blocks and the gathered Q among them. A fused
// SubmitBatch reads its items in place, so it allocates little more than
// the Q factors it hands back: ≈ 1.5× the batch. The race detector's
// shadow allocations make the numbers meaningless, hence the build tag.
func TestAllocationBudget(t *testing.T) {
	grid := func(spec GridSpec, opts Options) func(as []*Dense) error {
		return func(as []*Dense) error {
			_, err := FactorizeOnGrid(as[0], spec, opts)
			return err
		}
	}
	byPlan := func(p Plan) func(as []*Dense) error {
		return func(as []*Dense) error {
			_, err := FactorizePlan(as[0], p, Options{})
			return err
		}
	}
	srv := newTestServer(t, ServerOptions{Procs: 8})
	for _, tc := range []struct {
		name         string
		m, n, items  int
		run          func(as []*Dense) error
		inputs       uint64 // budget in multiples of the items·8·m·n input bytes
		objectBudget uint64
	}{
		{"grid_c2_d4_2048x128", 2048, 128, 1, grid(GridSpec{C: 2, D: 4}, Options{}), 12, 4000},
		{"grid_c2_d2_4096x64", 4096, 64, 1, grid(GridSpec{C: 2, D: 2}, Options{}), 11, 2000},
		{"grid_c2_d4_2048x128_inverse_depth_1", 2048, 128, 1, grid(GridSpec{C: 2, D: 4}, Options{InverseDepth: 1}), 14, 4000},
		{"panel_c2_d4_2048x128_b32", 2048, 128, 1, byPlan(Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: 32}), 16, 4000},
		{"1d_p8_1024x64", 1024, 64, 1, byPlan(Plan{Variant: VariantCACQR2, C: 1, D: 8}), 11, 800},
		// The throughput path: per item its Q, its n×n ladder temporaries
		// and its result, ≈ 1.5× the input and ≈ 26 objects.
		{"submit_batch_fused_64x512x32", 512, 32, 64, func(as []*Dense) error {
			reqs := make([]SubmitRequest, len(as))
			for i, a := range as {
				reqs[i] = SubmitRequest{A: a, CondEst: 10}
			}
			for _, it := range srv.SubmitBatch(reqs) {
				if it.Err != nil {
					return it.Err
				}
				if !it.Result.Fused {
					return errors.New("item did not take the fused path")
				}
			}
			return nil
		}, 2, 64 * 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := make([]*Dense, tc.items)
			for i := range as {
				as[i] = RandomMatrix(tc.m, tc.n, int64(7+i))
			}
			bytes, objects := allocsPerRun(3, func() {
				if err := tc.run(as); err != nil {
					t.Fatal(err)
				}
			})
			input := uint64(8 * tc.m * tc.n * tc.items)
			t.Logf("%d bytes (%.2f× the input), %d objects per run (%d per item)", bytes, float64(bytes)/float64(input), objects, objects/uint64(tc.items))
			if bytes > tc.inputs*input {
				t.Errorf("allocates %d bytes per run, budget is %d× the %d-byte input", bytes, tc.inputs, input)
			}
			if objects > tc.objectBudget {
				t.Errorf("allocates %d objects per run, budget is %d", objects, tc.objectBudget)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				if err := tc.run(as); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			t.Logf("%d GC cycles per 50 runs", after.NumGC-before.NumGC)
		})
	}
}

// TestJobStorageDiesWithTheJob: the workspaces and the message free list
// belong to one run and nothing keeps them: after hundreds of jobs the
// heap in use is what it was after a handful.
func TestJobStorageDiesWithTheJob(t *testing.T) {
	a := RandomMatrix(1024, 64, 7)
	inUse := func(jobs int) uint64 {
		for i := 0; i < jobs; i++ {
			if _, err := FactorizeOnGrid(a, GridSpec{C: 2, D: 4}, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	base := inUse(10)
	after := inUse(200)
	t.Logf("heap in use: %d bytes after 10 jobs, %d after 200 more", base, after)
	// One job allocates ≈ 6 MB; a leak of one job's storage in a hundred
	// would be past this.
	if after > base+(1<<20) {
		t.Errorf("heap in use grew from %d to %d bytes over 200 jobs", base, after)
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
