package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"runtime"
	"testing"
)

// batchWorkerCounts mirrors the ISSUE's Workers sweep: serial, a small
// fixed fan-out, and the host's core count.
func batchWorkerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// randomSlab fills a batch of distinct deterministic matrices.
func randomSlab(b, r, c int, seed int64) *Slab {
	s := NewSlab(b, r, c)
	for i := 0; i < b; i++ {
		s.Item(i).CopyFrom(RandomMatrix(r, c, seed+int64(i)))
	}
	return s
}

func TestSlabPackUnpackRoundTrip(t *testing.T) {
	items := []*Matrix{RandomMatrix(7, 5, 1), RandomMatrix(7, 5, 2), RandomMatrix(7, 5, 3)}
	s := SlabFrom(items)
	if s.Batch != 3 || s.Rows != 7 || s.Cols != 5 {
		t.Fatalf("slab shape %dx%dx%d", s.Batch, s.Rows, s.Cols)
	}
	for i, m := range items {
		if !s.Item(i).Equal(m) {
			t.Fatalf("item %d lost in pack/unpack", i)
		}
	}
	// Item views alias the slab; writes must land in Data.
	s.Item(1).Set(0, 0, 42)
	if s.Data[7*5] != 42 {
		t.Fatal("Item view does not alias slab storage")
	}
	if got := SlabFrom(nil); got.Batch != 0 || len(got.Data) != 0 {
		t.Fatalf("empty SlabFrom: %+v", got)
	}
}

func TestSlabFromRejectsMixedShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-shape SlabFrom did not panic")
		}
	}()
	SlabFrom([]*Matrix{NewMatrix(4, 2), NewMatrix(3, 2)})
}

// The core bitwise contract: every Batch* kernel must produce exactly
// the serial per-item kernel's bits across uneven batch sizes, shapes,
// and worker counts — the same promise parallel.go makes for single
// matrices, extended to the batch dimension.
func TestBatchSYRKBitwiseMatchesSerial(t *testing.T) {
	for _, batch := range []int{1, 3, 17, 64} {
		for _, sh := range []struct{ m, n int }{{8, 3}, {64, 16}, {129, 31}, {512, 32}} {
			a := randomSlab(batch, sh.m, sh.n, 100)
			c0 := randomSlab(batch, sh.n, sh.n, 900)
			for _, w := range batchWorkerCounts() {
				got := NewSlab(batch, sh.n, sh.n)
				copy(got.Data, c0.Data)
				BatchSYRK(w, 1.25, a, 0.5, got)
				for i := 0; i < batch; i++ {
					want := c0.Item(i).Clone()
					Syrk(1.25, a.Item(i), 0.5, want)
					if !got.Item(i).Equal(want) {
						t.Fatalf("batch=%d shape=%dx%d workers=%d item %d differs from serial Syrk",
							batch, sh.m, sh.n, w, i)
					}
				}
			}
		}
	}
}

func TestBatchGEMMBitwiseMatchesSerial(t *testing.T) {
	for _, batch := range []int{1, 5, 33} {
		for _, sh := range []struct{ m, k, n int }{{16, 16, 16}, {65, 17, 9}, {512, 32, 32}} {
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					ar, ac := sh.m, sh.k
					if ta {
						ar, ac = ac, ar
					}
					br, bc := sh.k, sh.n
					if tb {
						br, bc = bc, br
					}
					a := randomSlab(batch, ar, ac, 200)
					b := randomSlab(batch, br, bc, 300)
					c0 := randomSlab(batch, sh.m, sh.n, 400)
					for _, w := range batchWorkerCounts() {
						got := NewSlab(batch, sh.m, sh.n)
						copy(got.Data, c0.Data)
						BatchGEMM(w, ta, tb, 1.5, a, b, 0.25, got)
						for i := 0; i < batch; i++ {
							want := c0.Item(i).Clone()
							Gemm(ta, tb, 1.5, a.Item(i), b.Item(i), 0.25, want)
							if !got.Item(i).Equal(want) {
								t.Fatalf("batch=%d %dx%dx%d trans=%v,%v workers=%d item %d differs",
									batch, sh.m, sh.k, sh.n, ta, tb, w, i)
							}
						}
					}
				}
			}
		}
	}
}

func TestBatchTRSMBitwiseMatchesSerial(t *testing.T) {
	cases := []struct {
		side Side
		tri  Triangle
	}{{Right, Upper}, {Left, Upper}, {Left, Lower}}
	for _, batch := range []int{1, 4, 19} {
		for _, sh := range []struct{ m, n int }{{12, 4}, {96, 32}, {33, 7}} {
			for _, cs := range cases {
				tSlab := NewSlab(batch, sh.n, sh.n)
				for i := 0; i < batch; i++ {
					tSlab.Item(i).CopyFrom(wellCondTriangular(sh.n, cs.tri, int64(500+i)))
				}
				br, bc := sh.m, sh.n
				if cs.side == Left {
					br, bc = sh.n, sh.m
				}
				b0 := randomSlab(batch, br, bc, 600)
				for _, w := range batchWorkerCounts() {
					got := NewSlab(batch, br, bc)
					copy(got.Data, b0.Data)
					BatchTRSM(w, cs.side, cs.tri, false, tSlab, got)
					for i := 0; i < batch; i++ {
						want := b0.Item(i).Clone()
						Trsm(cs.side, cs.tri, false, tSlab.Item(i), want)
						if !got.Item(i).Equal(want) {
							t.Fatalf("batch=%d %v/%v %dx%d workers=%d item %d differs",
								batch, cs.side, cs.tri, sh.m, sh.n, w, i)
						}
					}
				}
			}
		}
	}
}

func TestBatchTRSMRejectsSingularUpFront(t *testing.T) {
	tSlab := NewSlab(2, 3, 3)
	tSlab.Item(0).CopyFrom(wellCondTriangular(3, Upper, 1))
	// Item 1 has a zero pivot: validation must panic before any pooled
	// work starts (a pool-worker panic would be unrecoverable).
	b := randomSlab(2, 4, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("singular batched TRSM did not panic")
		}
	}()
	BatchTRSM(2, Right, Upper, false, tSlab, b)
}

func TestBatchApplyCoversEveryItemOnce(t *testing.T) {
	for _, batch := range []int{0, 1, 7, 100} {
		counts := make([]int32, batch)
		BatchApply(4, batch, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("batch=%d item %d visited %d times", batch, i, c)
			}
		}
	}
}
