package plan

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"testing"

	"cacqr/internal/costmodel"
)

func TestKappaBucketBoundaries(t *testing.T) {
	cases := []struct {
		cond float64
		want int
	}{
		{0, 0},         // unknown
		{1, 0},         // perfectly conditioned
		{1.0000001, 1}, // just past the no-information edge
		{10, 1},        // decade edges are inclusive on the right
		{10.0001, 2},   // …and exclusive on the left
		{1e7, 7},       // the CQR2-family routing decade
		{1.0001e7, 8},  //
		{9.9e9, 10},    // interior of a decade
		{1e16, 16},     // last finite bucket edge
		{1.1e16, MaxKappaBucket},
		{math.Inf(1), MaxKappaBucket}, // rank-deficient estimate
		{math.NaN(), MaxKappaBucket},  // conservative for garbage
		{-5, MaxKappaBucket},          // …including negative estimates
	}
	for _, c := range cases {
		if got := KappaBucket(c.cond); got != c.want {
			t.Errorf("KappaBucket(%g) = %d, want %d", c.cond, got, c.want)
		}
	}
}

func TestBucketCeilCoversBucket(t *testing.T) {
	// Every κ must land in a bucket whose ceiling is ≥ κ, so planning at
	// the ceiling is conservative for the whole bucket.
	for _, cond := range []float64{1.5, 42, 9.99e6, 1e7, 3e9, 5e12, 1e16, 7e16} {
		b := KappaBucket(cond)
		if ceil := BucketCeil(b); ceil < cond {
			t.Errorf("BucketCeil(%d) = %g < κ = %g", b, ceil, cond)
		}
	}
	if BucketCeil(0) != 0 {
		t.Errorf("BucketCeil(0) = %g, want 0 (no information)", BucketCeil(0))
	}
}

// TestBucketEdgePlanValidInsideBucket is the serving-layer contract:
// a plan produced at the bucket's upper edge must pass the condition
// gate at every κ inside the bucket. PredictOrthogonality is monotone in
// κ for every variant, so checking the edge against interior points over
// the routing-relevant decades suffices.
func TestBucketEdgePlanValidInsideBucket(t *testing.T) {
	m, n := 4096, 64
	variants := []struct {
		v  Variant
		pw int
	}{{CACQR2, 0}, {PanelCACQR2, 16}, {ShiftedCQR3, 0}, {TSQR, 0}, {TSQR, 8}, {PGEQRF, 8}}
	for b := 1; b <= MaxKappaBucket; b++ {
		edge := BucketCeil(b)
		interior := []float64{edge / 9, edge / 2, edge}
		for _, va := range variants {
			atEdge := PredictOrthogonality(va.v, m, n, va.pw, edge)
			for _, k := range interior {
				if KappaBucket(k) != b {
					continue // κ/9 can fall into the previous bucket
				}
				if got := PredictOrthogonality(va.v, m, n, va.pw, k); got > atEdge {
					t.Errorf("bucket %d: %s(b=%d) loss at κ=%g is %g > edge loss %g",
						b, va.v, va.pw, k, got, atEdge)
				}
			}
		}
	}
}

func TestKeyForBucketsAndNormalizes(t *testing.T) {
	base := Request{M: 8192, N: 64, Procs: 16}
	// Same decade → same key; different decade → different key.
	a := base
	a.CondEst = 2e9
	b := base
	b.CondEst = 9e9
	if KeyFor(a) != KeyFor(b) {
		t.Errorf("κ=2e9 and κ=9e9 should share a cache key: %v vs %v", KeyFor(a), KeyFor(b))
	}
	c := base
	c.CondEst = 2e10
	if KeyFor(a) == KeyFor(c) {
		t.Errorf("κ=2e9 and κ=2e10 must not share a cache key")
	}
	// The zero machine and an explicit Stampede2 plan identically, so
	// they must share a key.
	d := base
	d.Machine = costmodel.Stampede2
	if KeyFor(base) != KeyFor(d) {
		t.Errorf("zero machine and explicit Stampede2 should share a key")
	}
	e := base
	e.Machine = costmodel.BlueWaters
	if KeyFor(base) == KeyFor(e) {
		t.Errorf("different machines must not share a key")
	}
	// Shape, budget, and legend knobs all separate keys.
	for _, mut := range []func(*Request){
		func(r *Request) { r.M *= 2 },
		func(r *Request) { r.N *= 2 },
		func(r *Request) { r.Procs *= 2 },
		func(r *Request) { r.MemBudget = 1 << 20 },
		func(r *Request) { r.InverseDepth = 1 },
		func(r *Request) { r.BaseSize = 16 },
	} {
		q := base
		mut(&q)
		if KeyFor(base) == KeyFor(q) {
			t.Errorf("mutated request %+v should not share the base key", q)
		}
	}
}

// TestBucketedRequestPlans asserts the bucketed request is actually
// plannable and routes the way the raw request would: a κ=3e9 request
// (bucket 10, planned at κ=1e10) must leave the plain CholeskyQR2 family
// exactly like a raw κ=3e9 request does.
func TestBucketedRequestPlans(t *testing.T) {
	req := Request{M: 4096, N: 64, Procs: 8, CondEst: 3e9}
	bp, err := Best(Bucketed(req))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Variant == CACQR2 || bp.Variant == PanelCACQR2 {
		t.Fatalf("bucketed κ=3e9 plan chose the plain CQR2 family: %v", bp)
	}
	if bp.Variant != rp.Variant {
		t.Errorf("bucketed plan variant %s differs from raw plan variant %s", bp.Variant, rp.Variant)
	}
}
