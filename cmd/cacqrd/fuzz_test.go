package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzFactorizeRequest drives the daemon's request-validation surface —
// JSON decode plus buildMatrix — with arbitrary bodies. The contract:
// malformed input errors, it never panics, and a matrix that does
// materialize honors both the declared shape and the -max-elems bound
// (one hostile body must not OOM the daemon out from under every other
// client).
func FuzzFactorizeRequest(f *testing.F) {
	seeds := []string{
		`{"m":4,"n":2,"gen":{"seed":7}}`,
		`{"m":4,"n":2,"data":[1,2,3,4,5,6,7,8]}`,
		`{"m":4,"n":2,"gen":{"seed":1,"cond":100}}`,
		`{"m":4,"n":2,"gen":{"seed":1,"cond":1e308}}`,
		`{"m":4,"n":2,"data":[1,2],"gen":{"seed":1}}`,
		`{"m":-1,"n":2,"gen":{"seed":1}}`,
		`{"m":4,"n":0}`,
		`{"m":1000000000,"n":1000000000,"gen":{"seed":1}}`,
		`{"m":4,"n":2,"b":[1,0,0,1],"data":[1,0,0,1,0,0,0,0]}`,
		`{"m":4,"n":2,"gen":{"seed":1,"cond":"NaN"}}`,
		`{`,
		``,
		`{"m":1,"n":2,"gen":{"cond":10}}`, // found by this target: the exact-κ generator panicked on m < n
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	const maxElems = 1 << 12
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body), int64(len(body)), maxElems)
		if err != nil {
			return // malformed JSON must error, never panic
		}
		a, err := buildMatrix(req, maxElems)
		if err != nil {
			return // rejected shapes/specs must error, never panic
		}
		if a.Rows != req.M || a.Cols != req.N {
			t.Fatalf("built %dx%d for a %dx%d request", a.Rows, a.Cols, req.M, req.N)
		}
		if int64(a.Rows)*int64(a.Cols) > maxElems {
			t.Fatalf("%dx%d matrix exceeds the %d-element bound", a.Rows, a.Cols, maxElems)
		}
	})
}

// FuzzWireMatchesEncodingJSON holds the scanner to the package it
// replaced. A body the new decoder accepts, encoding/json accepts, with
// the same envelope and bit-identical arrays. A body encoding/json
// accepts and the new decoder refuses is one of the documented
// tightenings: an element of "data" or "b" that is not a number (null,
// which used to read as 0), a "b" whose length is not m, or an array
// refused on the shape that preceded it — then buildMatrix refused the
// request too, a step later, unless the body goes on to name "m" or "n"
// again. Nothing panics, and no array is given more room than the body
// has bytes for.
func FuzzWireMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{
		`{"m":4,"n":2,"data":[1,2,3,4,5,6,7,8],"b":[1,0,0,1],"want_factors":true}`,
		`{"b":[1,0,0,1],"data":[1,2,3,4,5,6,7,8],"m":4,"n":2}`,
		`{"m":2,"n":1,"data":[1,null]}`,
		`{"m":2,"n":1,"DATA":[-0,1e-7],"data":[1E+21,5e-324],"B":[1.7976931348623157e308,1e999]}`,
		`{"m":2,"n":1,"data":[+1,.5,1.,0x1p3,Inf,NaN,1_0,01]}`,
		`{"m":64,"n":64,"data":[1],"m":1,"n":1}`,
		`{"m":4096,"n":4096,"data":[1]}`,
		`{"m":2,"n":1,"d\u0061ta":[1,2],"gen":{"seed":1,"cond":3},"procs":2,"condest":1e3}`,
		` { "data" : null , "b" : [ ] , "x" : {"data":[null]} } trailing`,
		`{"data":[1,2`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	const maxElems = 1 << 12
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeBytes(body, maxElems)
		ref, refErr := decodeRef(body)
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted, but encoding/json refuses: %v", refErr)
			}
			if err := sameRequest(got, ref); err != nil {
				t.Fatal(err)
			}
			if room := len(body) / 2; cap(got.Data) > room || cap(got.B) > room {
				t.Fatalf("%d-byte body: room for %d and %d numbers", len(body), cap(got.Data), cap(got.B))
			}
			return
		}
		if refErr != nil {
			return
		}
		notNumber, shapeAgain := tightenings(t, body)
		if notNumber {
			return
		}
		_, oldErr := buildMatrix(request{M: ref.M, N: ref.N, Data: ref.Data, Gen: ref.Gen}, maxElems)
		wrongB := ref.B != nil && len(ref.B) != ref.M // was Submit's 422 on a solve
		if oldErr == nil && !wrongB && !shapeAgain {
			t.Fatalf("refused (%v) a body the old path served: %+v", err, ref)
		}
	})
}

// tightenings walks a body encoding/json accepts, member by member, and
// reports whether an array of "data" or "b" holds a null, and whether
// "m" or "n" is named again after such an array.
func tightenings(t *testing.T, body []byte) (notNumber, shapeAgain bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false, false
	}
	arrays := false
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			t.Fatal(err)
		}
		switch strings.ToLower(key.(string)) {
		case "data", "b":
			arrays = true
			var elems []*float64
			if err := json.Unmarshal(val, &elems); err != nil {
				continue // not an array of numbers: encoding/json's own refusal, on a later pass
			}
			for _, e := range elems {
				notNumber = notNumber || e == nil
			}
		case "m", "n":
			shapeAgain = shapeAgain || arrays
		}
	}
	return notNumber, shapeAgain
}
