//go:build !race

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	cacqr "cacqr"
)

// allocBytesPerRun reports the bytes one call of f allocates, averaged
// over runs calls after one warm-up call. The race detector's shadow
// allocations make the number meaningless, hence the build tag.
func allocBytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// What the wire saves is allocation, so the two functions carry a
// budget: decoding holds the body and the matrix and nothing that grows
// with either (encoding/json made 13.6 MB of a 2.6 MB 1024×128 body),
// and a response is printed through one 64 KiB buffer however long.
func TestWireAllocationBudget(t *testing.T) {
	const m, n = 1024, 128
	a := cacqr.RandomMatrix(m, n, 7)
	body, err := json.Marshal(struct {
		M    int       `json:"m"`
		N    int       `json:"n"`
		Data []float64 `json:"data"`
		Want bool      `json:"want_factors"`
	}{m, n, a.Data, true})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	got := allocBytesPerRun(5, func() {
		rd.Reset(body)
		req, err := decodeRequest(rd, int64(len(body)), 1<<24)
		if err != nil || len(req.Data) != m*n || !req.WantFactors {
			t.Fatalf("decode: %v, %d numbers", err, len(req.Data))
		}
	})
	budget := uint64(8*m*n + len(body) + 64<<10)
	t.Logf("decodeRequest: %d bytes for a %d-byte body of %d numbers (budget %d)", got, len(body), m*n, budget)
	if got > budget {
		t.Errorf("decodeRequest allocates %d bytes, budget is 8·m·n + len(body) + 64 KiB = %d", got, budget)
	}

	// The same body with the arrays before the shape grows its slice by
	// doubling: more than once over, never past what the body could hold.
	late, err := json.Marshal(map[string]any{"m": m, "n": n, "data": a.Data})
	if err != nil {
		t.Fatal(err)
	}
	got = allocBytesPerRun(5, func() {
		rd.Reset(late)
		if req, err := decodeRequest(rd, int64(len(late)), 1<<24); err != nil || len(req.Data) != m*n {
			t.Fatalf("decode: %v, %d numbers", err, len(req.Data))
		}
	})
	t.Logf("decodeRequest, data before m and n: %d bytes", got)
	if budget := uint64(2*8*m*n + len(late) + 64<<10); got > budget {
		t.Errorf("decodeRequest allocates %d bytes when data precedes the shape, budget %d", got, budget)
	}

	res := testResult(m, n, 7)
	res.X = nil
	w := &discardResponse{header: http.Header{}}
	got = allocBytesPerRun(5, func() {
		w.n = 0
		if err := writeResult(w, res, true, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("writeResult: %d bytes to print %d numbers in %d bytes", got, m*n+n*n, w.n)
	if got > 128<<10 {
		t.Errorf("writeResult allocates %d bytes for its Q and R, budget is 128 KiB", got)
	}
}

// An inline body whose shape is past -max-elems is refused where the
// shape stands, whatever follows it: nothing but the body's own buffer
// is allocated, and not one slice of numbers.
func TestOverBoundInlineBodyAllocatesNoNumbers(t *testing.T) {
	const maxElems = 1 << 12
	numbers := strings.Repeat("1.5,", 20_000)
	for _, tail := range []string{
		`"data":[` + numbers + `1]}`,
		`"data":[1],"m":1,"n":1}`,
		`"data":[`, // truncated
	} {
		body := []byte(`{"m":4096,"n":4096,` + tail)
		rd := bytes.NewReader(body)
		var err error
		got := allocBytesPerRun(5, func() {
			rd.Reset(body)
			_, err = decodeRequest(rd, int64(len(body)), maxElems)
		})
		if err == nil || !strings.Contains(err.Error(), "-max-elems") {
			t.Errorf("%.40s…: %v, want the -max-elems refusal", body, err)
		}
		if slack := uint64(len(body) + 4<<10); got > slack {
			t.Errorf("%.40s…: %d bytes allocated for a %d-byte body that is refused on its shape", body, got, len(body))
		}
	}
}
