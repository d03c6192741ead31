package main

//lint:allow floatcompare tests assert that the scanner and printer agree with strconv and encoding/json bit for bit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	cacqr "cacqr"
)

// refRequest is the request as encoding/json alone read it before the
// scanner existed: the reference the wire is held to.
type refRequest struct {
	M           int       `json:"m"`
	N           int       `json:"n"`
	Data        []float64 `json:"data,omitempty"`
	Gen         *genSpec  `json:"gen,omitempty"`
	B           []float64 `json:"b,omitempty"`
	Procs       int       `json:"procs,omitempty"`
	CondEst     float64   `json:"condest,omitempty"`
	WantFactors bool      `json:"want_factors,omitempty"`
}

func decodeRef(body []byte) (refRequest, error) {
	var ref refRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
	return ref, err
}

func decodeBytes(body []byte, maxElems int64) (request, error) {
	return decodeRequest(bytes.NewReader(body), int64(len(body)), maxElems)
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRequest holds an accepted request to the reference: every field
// equal, the arrays bit for bit, nil where the reference has nil.
func sameRequest(got request, ref refRequest) error {
	switch {
	case got.M != ref.M || got.N != ref.N || got.Procs != ref.Procs || got.WantFactors != ref.WantFactors:
		return fmt.Errorf("envelope %+v, reference %+v", got, ref)
	case math.Float64bits(got.CondEst) != math.Float64bits(ref.CondEst):
		return fmt.Errorf("condest %v, reference %v", got.CondEst, ref.CondEst)
	case (got.Gen == nil) != (ref.Gen == nil):
		return fmt.Errorf("gen %v, reference %v", got.Gen, ref.Gen)
	case got.Gen != nil && (got.Gen.Seed != ref.Gen.Seed || math.Float64bits(got.Gen.Cond) != math.Float64bits(ref.Gen.Cond)):
		return fmt.Errorf("gen %+v, reference %+v", *got.Gen, *ref.Gen)
	case !sameFloats(got.Data, ref.Data):
		return fmt.Errorf("data %v, reference %v", got.Data, ref.Data)
	case !sameFloats(got.B, ref.B):
		return fmt.Errorf("b %v, reference %v", got.B, ref.B)
	}
	return nil
}

func postBody(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// An element of "data" or "b" is a JSON number: what the grammar admits
// parses to strconv.ParseFloat's bits, everything else — the wider forms
// ParseFloat itself would take included — is refused.
func TestNumberGrammar(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "1", "-1", "10", "1.5", "-0.25", "1e-7", "1E+21", "1e21", "2E5", "0e0", "0.0e-0",
		"5e-324", "1e-400", "1.7976931348623157e308", "123456789012345678901234567890", "0.1234567890123456789012345678901234567890",
	} {
		want, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		req, err := decodeBytes([]byte(`{"m":1,"n":1,"data":[`+lit+`]}`), 0)
		if err != nil {
			t.Errorf("%s refused: %v", lit, err)
			continue
		}
		if len(req.Data) != 1 || math.Float64bits(req.Data[0]) != math.Float64bits(want) {
			t.Errorf("%s parsed to %v, ParseFloat says %v", lit, req.Data, want)
		}
	}
	for _, lit := range []string{
		"+1", ".5", "1.", "0x1p3", "0x10", "Inf", "-Inf", "NaN", "1_0", "01", "-01", "00", "-", "1e", "1e+", "1.e3", "1.5.2", "--1", "1-",
		"null", "true", `"1"`, "[1]", "{}", "",
	} {
		body := `{"m":1,"n":1,"data":[` + lit + `]}`
		if req, err := decodeBytes([]byte(body), 0); err == nil {
			t.Errorf("%q accepted as %v", lit, req.Data)
		}
		if _, err := decodeBytes([]byte(`{"data":[1,`+lit+`]}`), 0); err == nil {
			t.Errorf("%q accepted as a second element before any shape", lit)
		}
	}
	// Out of range is an error, as it is in encoding/json.
	_, err := decodeBytes([]byte(`{"m":1,"n":1,"data":[1e999]}`), 0)
	if !errors.Is(err, strconv.ErrRange) {
		t.Errorf("1e999: %v, want a range error", err)
	}

	ts := newTestDaemon(t)
	for _, lit := range []string{"1e999", "+1", ".5", "1.", "0x1p3", "Inf", "NaN", "1_0", "01", "null"} {
		body := `{"m":2,"n":1,"data":[1,` + lit + `]}`
		if code, out := postBody(t, ts, "/v1/factorize", body); code != http.StatusBadRequest || !strings.Contains(out, `"error"`) {
			t.Errorf("%s: status %d %s, want a 400 with an error body", body, code, out)
		}
	}
}

// Everything about the object that is not a number stays encoding/json's:
// member order, key folding, repeated keys, whitespace, escapes, null.
func TestObjectRulesAreEncodingJSONs(t *testing.T) {
	for _, body := range []string{
		`{"m":2,"n":1,"data":[1,2]}`,
		`{"data":[1,2],"m":2,"n":1}`,
		`{"DATA":[1,2],"M":2,"N":1,"B":[3,4]}`,
		`{"dAtA":[1,2],"m":2,"n":1}`,
		`{"d\u0061ta":[1,2],"\u0042":[3,4],"m":2,"n":1}`,
		`{"d\\u0061ta":[1,null],"m":2,"n":1}`, // an escaped backslash: not "data", so not ours to judge
		`{"data":[1,2],"m":2,"n":1}`,
		`{"data":[9,9,9],"m":2,"n":1,"data":[1,2]}`,
		`{"m":2,"n":1,"data":[1,2],"data":null}`,
		`{"m":2,"n":1,"data":null,"gen":{"seed":3}}`,
		`{"data":[],"b":[],"m":2,"n":1}`,
		` { "m" : 2 , "n" : 1 , "data" : [ 1 , 2 ] , "b" : [ 3 ,` + "\n\t\r" + ` 4 ] } `,
		`{"m":2,"n":1,"data":[1,2]} trailing garbage the decoder never reads`,
		`{"m":2,"n":1,"data":[1,2],"unknown":{"data":[null,"x"],"b":"]"},"want_factors":true}`,
		`{"m":2,"n":1,"gen":{"seed":1},"gen":{"cond":5}}`,
		`{"m":2,"n":1,"gen":{"seed":1},"gen":null}`,
		`{"m":2,"n":1,"procs":4,"condest":1e3,"want_factors":true,"b":[1,2],"data":[1,2]}`,
		`{}`,
		`null`,
	} {
		got, err := decodeBytes([]byte(body), 0)
		if err != nil {
			t.Errorf("%s refused: %v", body, err)
			continue
		}
		ref, err := decodeRef([]byte(body))
		if err != nil {
			t.Fatalf("%s: the reference refuses it: %v", body, err)
		}
		if err := sameRequest(got, ref); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
	for _, body := range []string{
		``, ` `, `{`, `{"m"`, `{"m":`, `{"m":2`, `{"m":2,`, `{"m":2,}`, `{,}`, `{"m" 2}`, `{"m":2 "n":1}`, `{m:2}`,
		`[1,2]`, `7`, `"x"`,
		`{"m":"2","data":[1]}`, `{"m":2.5}`, `{"gen":[1]}`,
		`{"data":5}`, `{"data":"x"}`, `{"data":{}}`, `{"data":[1,2],"data":"x"}`, `{"data":nul}`, `{"data":nullx}`,
		`{"data":[1,]}`, `{"data":[,1]}`, `{"data":[1 2]}`, `{"data":[1,2}`, `{"data":[1,2`, `{"data":[1,2]`, `{"data":[`,
		`{"m":1,"n":1,"data":[1.`, `{"m":1,"n":1,"data":[1e`, `{"m":1,"n":1,"data":[-`, `{"m":1,"n":1,"data":[12`,
		`{"d\u00ZZta":[1]}`, `{"data\":[1]}`,
		`{"m":2,"n":1,"data":[1,2],"unknown":tru"e}`, `{"m":2,"n":1,"data":[1,2],"unknown":[}]}`, `{"m":2,"n":1,"data":[1,2],"unknown":}`,
	} {
		if got, err := decodeBytes([]byte(body), 0); err == nil {
			t.Errorf("%q accepted as %+v", body, got)
		}
		if _, err := decodeRef([]byte(body)); err == nil {
			t.Errorf("%q: the reference accepts it", body)
		}
	}
}

// The two inputs the old wire answered with the wrong matrix or the
// wrong status: a null element was read as 0, and a "b" of the wrong
// length was a 422 from inside Submit.
func TestNullElementAndWrongLengthBAre400(t *testing.T) {
	ts := newTestDaemon(t)
	code, out := postBody(t, ts, "/v1/factorize", `{"m":4,"n":2,"data":[1,null,0,1,1,0,0,1],"want_factors":true}`)
	if code != http.StatusBadRequest || !strings.Contains(out, "data[1] at byte 23") {
		t.Errorf("null element: %d %s, want a 400 naming data[1] at byte 23", code, out)
	}
	code, out = postBody(t, ts, "/v1/solve", `{"m":4,"n":2,"data":[1,0,0,1,1,0,0,1],"b":[1,null,3,4]}`)
	if code != http.StatusBadRequest || !strings.Contains(out, "b[1]") {
		t.Errorf("null in b: %d %s, want a 400 naming b[1]", code, out)
	}
	for _, body := range []string{
		`{"m":4,"n":2,"data":[1,0,0,1,1,0,0,1],"b":[1,2]}`,       // known at decode time
		`{"m":4,"n":2,"data":[1,0,0,1,1,0,0,1],"b":[1,2,3,4,5]}`, // so is one too many
		`{"b":[1,2],"m":4,"n":2,"data":[1,0,0,1,1,0,0,1]}`,       // checked in the handler
		`{"b":[],"m":4,"n":2,"data":[1,0,0,1,1,0,0,1]}`,
	} {
		if code, out := postBody(t, ts, "/v1/solve", body); code != http.StatusBadRequest || !strings.Contains(out, `\"b\"`) {
			t.Errorf("%s: %d %s, want a 400 naming b", body, code, out)
		}
	}
	for _, body := range []string{
		`{"m":4,"n":2,"data":[1,0,0,1,1,0,0]}`,
		`{"m":4,"n":2,"data":[1,0,0,1,1,0,0,1,1]}`,
		`{"data":[1,0,0,1,1,0,0],"m":4,"n":2}`,
		`{"data":[1,0,0,1,1,0,0,1,1],"m":4,"n":2}`,
	} {
		if code, out := postBody(t, ts, "/v1/factorize", body); code != http.StatusBadRequest || !strings.Contains(out, `\"data\"`) {
			t.Errorf("%s: %d %s, want a 400 naming data", body, code, out)
		}
	}
	// In any member order a well-formed solve is still served.
	code, out = postBody(t, ts, "/v1/solve", `{"b":[1,2,3,4],"data":[1,0,0,1,1,0,0,1],"want_factors":true,"n":2,"m":4}`)
	if code != http.StatusOK || !strings.Contains(out, `"x":[2.0000000000000004,3.0000000000000004],"q":[`) {
		t.Errorf("arrays before the shape: %d %s", code, out)
	}
}

// A Gram matrix that overflows to +Inf used to come back as a 200 with
// no body: Cholesky took the infinite pivot, Q was NaN and the encoder's
// error was dropped after the status line. Now whichever rung meets it
// answers with an error body.
func TestOverflowingGramIsNeverAnEmpty200(t *testing.T) {
	ts := newTestDaemon(t)
	for _, big := range []string{"1e200", "1e160"} {
		data := strings.ReplaceAll(`"data":[X,0,0,X,X,0,0,1e-200],"want_factors":true`, "X", big)
		// Unhinted, the κ estimate is +Inf (its power iteration runs on
		// the overflowed Gram) and the plan is Householder TSQR, whose Q
		// and R are finite — its reflector norms are scaled: the response
		// writer's rung refuses the estimate.
		code, out := postBody(t, ts, "/v1/factorize", `{"m":4,"n":2,`+data+`}`)
		if code != http.StatusInternalServerError || !strings.Contains(out, `"error":"result is not finite: cond_est is +Inf"`) {
			t.Errorf("%s: %d %q, want the writer's 500 naming cond_est", big, code, out)
		}
		// With a caller's κ the plan is CholeskyQR2 and the whole ladder
		// breaks down on the infinite pivot: the library's typed error.
		code, out = postBody(t, ts, "/v1/factorize", `{"m":4,"n":2,"condest":10,`+data+`}`)
		if code != http.StatusUnprocessableEntity || !strings.Contains(out, `"error"`) || !strings.Contains(out, "ill-conditioned") {
			t.Errorf("%s with condest: %d %q, want the library's 422", big, code, out)
		}
	}
	// A rank-deficient matrix factors, but JSON cannot carry its κ.
	code, out := postBody(t, ts, "/v1/factorize", `{"m":4,"n":2,"data":[1,0,1,0,1,0,1,0]}`)
	if code != http.StatusInternalServerError || !strings.Contains(out, "cond_est is +Inf") {
		t.Errorf("zero column: %d %q, want a 500 naming cond_est", code, out)
	}
}

// A body over the cap is a 413 whether its length was declared (refused
// on the header) or not (the capped reader trips), never a 400.
func TestMaxBytesErrorIs413(t *testing.T) {
	const maxElems = 4
	limit := bodyCap(maxElems)
	big := bytes.Repeat([]byte(" "), int(limit)+1)
	var tooBig *http.MaxBytesError
	if _, err := decodeRequest(bytes.NewReader(big), int64(len(big)), maxElems); !errors.As(err, &tooBig) {
		t.Errorf("declared: %v, want a MaxBytesError", err)
	}
	capped := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(big)), limit)
	if _, err := decodeRequest(capped, -1, maxElems); !errors.As(err, &tooBig) {
		t.Errorf("undeclared: %v, want a MaxBytesError", err)
	}

	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(buildMux(srv, nil, maxElems, true))
	t.Cleanup(ts.Close)
	// io.MultiReader hides the length, so the client sends it chunked.
	resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", io.MultiReader(bytes.NewReader(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked oversized body returned %d, want 413", resp.StatusCode)
	}
}

// A body of undeclared length is read through a window that grows, and
// decodes to what the same bytes decode to when declared.
func TestUndeclaredLengthBody(t *testing.T) {
	a := cacqr.RandomMatrix(512, 32, 5)
	body, _ := json.Marshal(map[string]any{"m": 512, "n": 32, "data": a.Data})
	if len(body) < 4*readWindow {
		t.Fatalf("body of %d bytes does not outgrow the %d-byte window", len(body), readWindow)
	}
	got, err := decodeRequest(io.MultiReader(bytes.NewReader(body)), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Data, a.Data) {
		t.Fatal("undeclared-length body decoded to different numbers")
	}
}

// printerEdges are the values where encoding/json changes notation or
// strconv changes digit count.
var printerEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 5e-324, 2.2250738585072014e-308,
	1e20, 999999999999999900000, 1e21, -1e21, 1.2e21, 1e22, 1e100, 1.7976931348623157e308, -1.7976931348623157e308,
	123456789, 0.000001234, 1.0000000000000002, 4.35, 100, 1 << 53, 1e-5, -0.0000025856595304135173,
}

// Every number the daemon prints is byte for byte what encoding/json
// prints and reads back to the same bits.
func TestPrinterMatchesEncodingJSON(t *testing.T) {
	vals := append([]float64(nil), printerEdges...)
	rng := rand.New(rand.NewSource(24))
	for len(vals) < 100_000 {
		switch v := math.Float64frombits(rng.Uint64()); {
		case math.IsNaN(v) || math.IsInf(v, 0):
		case len(vals)%2 == 0:
			vals = append(vals, v) // every exponent
		default:
			vals = append(vals, rng.NormFloat64()) // what a Q looks like
		}
	}
	var buf []byte
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf = appendFloat(buf[:0], v)
		if !bytes.Equal(buf, want) {
			t.Fatalf("%v prints as %s, encoding/json prints %s", v, buf, want)
		}
		if len(buf) > 25 {
			t.Fatalf("%v prints in %d bytes, the writer flushes on 25 at most", v, len(buf))
		}
		back, err := strconv.ParseFloat(string(buf), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("%s reads back as %v (%v), printed from %v", buf, back, err, v)
		}
		if end := scanNumber(buf, 0); end != len(buf) {
			t.Fatalf("the scanner stops at byte %d of its own printer's %s", end, buf)
		}
	}
}

// discardResponse is a ResponseWriter that keeps the status and counts
// the body, so that what writeResult allocates is its own.
type discardResponse struct {
	header http.Header
	status int
	n      int
	fail   error
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.fail != nil {
		return 0, d.fail
	}
	d.n += len(p)
	return len(p), nil
}

// oldResponse is the success response as encoding/json alone wrote it.
type oldResponse struct {
	response
	X []float64 `json:"x,omitempty"`
	Q []float64 `json:"q,omitempty"`
	R []float64 `json:"r,omitempty"`
}

func testResult(m, n int, seed int64) *cacqr.SubmitResult {
	plan := cacqr.Plan{}
	return &cacqr.SubmitResult{
		Q:       cacqr.RandomMatrix(m, n, seed),
		R:       cacqr.RandomMatrix(n, n, seed+1),
		X:       cacqr.RandomMatrix(n, 1, seed+2).Data,
		Plan:    &plan,
		CondEst: 12.5,
		TraceID: "t<&>-1",
	}
}

// The whole success body is what json.Encoder wrote for the same result
// when x, q and r were reflected fields — for a resident run byte for
// byte, for a streamed one up to where the arrays sit in the object.
func TestResponseMatchesEncodingJSON(t *testing.T) {
	res := testResult(300, 40, 3) // 12 000 numbers: several flushes of the buffer
	copy(res.Q.Data, printerEdges)
	for _, wantFactors := range []bool{true, false} {
		rec := httptest.NewRecorder()
		if err := writeResult(rec, res, wantFactors, 1234567*time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		old := oldResponse{response: buildResponse(res, 1234567*time.Nanosecond), X: res.X}
		if wantFactors {
			old.Q, old.R = res.Q.Data, res.R.Data
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(old); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("want_factors=%t: body differs from encoding/json's (%d bytes against %d)", wantFactors, rec.Body.Len(), want.Len())
		}
	}

	// Streamed: no Q, and the arrays follow the panel accounting.
	res.Q, res.X = nil, nil
	res.Stream = &cacqr.StreamInfo{Panels: 4, PanelRows: 75, MaxResidentBytes: 4096}
	rec := httptest.NewRecorder()
	if err := writeResult(rec, res, true, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("streamed body is not JSON: %v", err)
	}
	if _, hasQ := got["q"]; hasQ || got["streamed"] != true || len(got["r"].([]any)) != 40*40 {
		t.Errorf("streamed body: %.200s", rec.Body.Bytes())
	}
}

// A result JSON cannot carry is refused before the status line; a write
// that fails after it is reported, not dropped.
func TestWriteResultErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*cacqr.SubmitResult)
		want string
	}{
		{"q", func(r *cacqr.SubmitResult) { r.Q.Data[7] = math.NaN() }, "q[7] is NaN"},
		{"r", func(r *cacqr.SubmitResult) { r.R.Data[3] = math.Inf(-1) }, "r[3] is -Inf"},
		{"x", func(r *cacqr.SubmitResult) { r.X[1] = math.Inf(1) }, "x[1] is +Inf"},
		{"cond_est", func(r *cacqr.SubmitResult) { r.CondEst = math.Inf(1) }, "cond_est is +Inf"},
		{"sim_seconds", func(r *cacqr.SubmitResult) { r.Stats.Time = math.NaN() }, "unsupported value"},
	} {
		res := testResult(8, 2, 1)
		tc.bad(res)
		w := &discardResponse{header: http.Header{}}
		err := writeResult(w, res, true, time.Millisecond)
		if !errors.Is(err, errNonFinite) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want errNonFinite naming %q", tc.name, err, tc.want)
		}
		if w.status != 0 || w.n != 0 {
			t.Errorf("%s: status %d and %d bytes were written before the refusal", tc.name, w.status, w.n)
		}
	}
	res := testResult(8, 2, 1)
	w := &discardResponse{header: http.Header{}, fail: io.ErrClosedPipe}
	err := writeResult(w, res, true, time.Millisecond)
	if !errors.Is(err, io.ErrClosedPipe) || errors.Is(err, errNonFinite) {
		t.Errorf("failed write: %v, want the writer's error and not errNonFinite", err)
	}
	// The same on a response long enough to flush mid-array.
	w = &discardResponse{header: http.Header{}, fail: io.ErrClosedPipe}
	if err := writeResult(w, testResult(2048, 8, 1), true, time.Millisecond); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("failed flush: %v", err)
	}
}

// The CI round-trip in miniature: an inline-data request with
// want_factors comes back with m·n numbers of Q that read as a
// factorization of the matrix sent.
func TestInlineDataRoundTrip(t *testing.T) {
	ts := newTestDaemon(t)
	const m, n = 64, 8
	a := cacqr.RandomMatrix(m, n, 11)
	body, _ := json.Marshal(map[string]any{"m": m, "n": n, "data": a.Data, "want_factors": true})
	code, out := postBody(t, ts, "/v1/factorize", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var got struct{ Q, R []float64 }
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Q) != m*n || len(got.R) != n*n {
		t.Fatalf("len(q) = %d, len(r) = %d, want %d and %d", len(got.Q), len(got.R), m*n, n*n)
	}
	q := &cacqr.Dense{Rows: m, Cols: n, Data: got.Q}
	r := &cacqr.Dense{Rows: n, Cols: n, Data: got.R}
	if e := cacqr.ResidualNorm(a, q, r); e > 1e-13 {
		t.Errorf("‖A − QR‖/‖A‖ = %g", e)
	}
	if e := cacqr.OrthogonalityError(q); e > 1e-13 {
		t.Errorf("‖QᵀQ − I‖ = %g", e)
	}
}
