package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	cacqr "cacqr"
)

// The numeric half of the JSON wire. encoding/json keeps every member
// whose cost does not grow with the matrix; "data" and "b" on the way in
// and "x", "q" and "r" on the way out are scanned and printed here, from
// the body's own buffer into the slice the executor will own and from
// the result's own storage through one small buffer.

// readWindow is the buffer a body of undeclared length starts in.
const readWindow = 64 << 10

// readBody reads the whole body once into one buffer sized from the
// declared length (size < 0: undeclared, a window that doubles). The
// buffer is committed on the header's word, which is why decodeRequest
// refuses a declared length past bodyCap before coming here.
func readBody(r io.Reader, size int64) ([]byte, error) {
	// One spare byte, so that a body of exactly the declared length meets
	// EOF before the buffer looks full.
	buf := make([]byte, 0, size+1)
	if size < 0 {
		buf = make([]byte, 0, readWindow)
	}
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRequest parses one factorize/solve wire body of the declared
// size (−1: undeclared). The caller caps the reader
// (http.MaxBytesReader). It walks the top-level object once: every
// member except "data" and "b" goes to encoding/json as it stands, so
// unknown keys, case-folded keys, repeated keys (the last wins), string
// escapes and the types of the other fields are that package's rules;
// the two arrays are scanned in place against the JSON number grammar.
// An array that follows "m" and "n" is judged on the shape as it stands
// there: past maxElems, or of a length other than m·n (m for "b"), it
// is refused before a number of it is parsed or stored, and otherwise
// it is stored in a slice allocated once at that length. Everything
// else beyond well-formedness — data/gen exclusivity, generator κ
// targets, the shape of a body that names its arrays first — is
// buildMatrix's job, so the two compose into the full
// request-validation surface (and fuzz as one unit).
func decodeRequest(body io.Reader, size, maxElems int64) (request, error) {
	var req request
	if limit := bodyCap(maxElems); size > limit {
		// Refused on the header alone, with nothing allocated; a capped
		// reader is drained to its cap so that it closes the connection
		// the way it does for an undeclared length.
		_, err := io.Copy(io.Discard, body)
		if err == nil {
			err = &http.MaxBytesError{Limit: limit}
		}
		return req, err
	}
	buf, err := readBody(body, size)
	if err != nil {
		return req, err
	}
	i := skipSpace(buf, 0)
	if i == len(buf) || buf[i] != '{' {
		// Not an object, so no array of ours: encoding/json's verdict.
		return req, json.NewDecoder(bytes.NewReader(buf)).Decode(&req)
	}
	// rest holds the members met since the last flush as one JSON object;
	// flush hands them to encoding/json, which overwrites in req exactly
	// the fields they name, as it would have in one pass over them all.
	rest := append(make([]byte, 0, 256), '{')
	flush := func() error {
		if len(rest) == 1 {
			return nil
		}
		err := json.Unmarshal(append(rest, '}'), &req)
		rest = rest[:1]
		return err
	}
	i++
	for first := true; ; first = false {
		i = skipSpace(buf, i)
		if first && i < len(buf) && buf[i] == '}' {
			break
		}
		keyEnd, err := skipString(buf, i)
		if err != nil {
			return req, err
		}
		key := buf[i:keyEnd]
		i = skipSpace(buf, keyEnd)
		if i == len(buf) || buf[i] != ':' {
			return req, syntaxError(buf, i, "':' after an object key")
		}
		i = skipSpace(buf, i+1)
		name, err := arrayKey(key)
		if err != nil {
			return req, err
		}
		if name == "" {
			end, err := skipValue(buf, i)
			if err != nil {
				return req, err
			}
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(append(append(rest, key...), ':'), buf[i:end]...)
			i = end
		} else {
			if err := flush(); err != nil {
				return req, err
			}
			want, err := declaredLen(name, req, maxElems)
			if err != nil {
				return req, err
			}
			var vals []float64
			if vals, i, err = scanNumbers(buf, i, name, want); err != nil {
				return req, err
			}
			if name == "data" {
				req.Data = vals
			} else {
				req.B = vals
			}
		}
		i = skipSpace(buf, i)
		if i < len(buf) && buf[i] == '}' {
			break
		}
		if i == len(buf) || buf[i] != ',' {
			return req, syntaxError(buf, i, "',' or '}' after an object member")
		}
		i++
	}
	return req, flush()
}

func syntaxError(buf []byte, i int, want string) error {
	if i >= len(buf) {
		return fmt.Errorf("body ends at byte %d: want %s: %w", len(buf), want, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("byte %d: %q where %s should be", i, buf[i], want)
}

func skipSpace(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index past the string literal opening at
// buf[i]. Its content is not judged here: whoever reads the string does.
func skipString(buf []byte, i int) (int, error) {
	if i == len(buf) || buf[i] != '"' {
		return i, syntaxError(buf, i, "a string")
	}
	for i++; i < len(buf); i++ {
		switch buf[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return len(buf), syntaxError(buf, len(buf), "the end of a string")
}

// skipValue returns the index past the JSON value at buf[i], finding its
// extent and nothing more — strings, nesting depth, and for a scalar the
// next delimiter — because encoding/json validates the bytes afterwards,
// and on a body it accepts the two agree on where every value ends.
func skipValue(buf []byte, i int) (int, error) {
	if i == len(buf) {
		return i, syntaxError(buf, i, "a value")
	}
	switch buf[i] {
	case '"':
		return skipString(buf, i)
	case '{', '[':
		for depth := 0; i < len(buf); i++ {
			switch buf[i] {
			case '"':
				end, err := skipString(buf, i)
				if err != nil {
					return end, err
				}
				i = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
		}
		return i, syntaxError(buf, i, "the end of a nested value")
	}
	for ; i < len(buf); i++ {
		switch buf[i] {
		case ',', '}', ']', ' ', '\n', '\t', '\r':
			return i, nil
		}
	}
	return i, nil
}

// arrayKey reports which of the two scanned arrays the quoted key names
// under encoding/json's matching — unquoted, then compared without
// regard to case — or "" for any other member. No character outside
// ASCII folds onto a letter of "data" or "b", so folding ASCII is that
// package's rule here.
func arrayKey(quoted []byte) (string, error) {
	key := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(key, '\\') >= 0 {
		var s string
		if err := json.Unmarshal(quoted, &s); err != nil {
			return "", fmt.Errorf("object key %s: %w", quoted, err)
		}
		key = []byte(s)
	}
	for _, name := range []string{"data", "b"} {
		if len(key) == len(name) && bytes.EqualFold(key, []byte(name)) {
			return name, nil
		}
	}
	return "", nil
}

// declaredLen is how many numbers the array called name must hold under
// the shape the body has given so far, or −1 when it has not given one.
// A shape past maxElems is refused here, before its "data" is looked at.
func declaredLen(name string, req request, maxElems int64) (int, error) {
	switch {
	case req.M < 1:
		return -1, nil
	case name == "b":
		return req.M, nil
	case req.N < 1:
		return -1, nil
	}
	if err := checkElems(req.M, req.N, maxElems); err != nil {
		return 0, err
	}
	if req.M > math.MaxInt/req.N {
		return math.MaxInt, nil // longer than any body
	}
	return req.M * req.N, nil
}

// scanNumbers parses the JSON value at buf[i] — an array of numbers, or
// null, which like encoding/json it reads as no array at all — and
// returns the numbers and the index past the value. With want ≥ 0 the
// array must hold exactly that many: one that cannot (the rest of the
// body is too short for them) is refused before anything is allocated,
// the slice is allocated once, and an element too many ends the scan.
// With want < 0 the slice grows by doubling, never past what the rest
// of the body could hold.
func scanNumbers(buf []byte, i int, name string, want int) ([]float64, int, error) {
	if bytes.HasPrefix(buf[i:], []byte("null")) {
		return nil, i + 4, nil
	}
	if i == len(buf) || buf[i] != '[' {
		return nil, i, syntaxError(buf, i, fmt.Sprintf("%q's array of numbers", name))
	}
	// k numbers and their brackets and commas take 2k+1 bytes at least.
	room := (len(buf) - i) / 2
	if want > room {
		return nil, i, fmt.Errorf("byte %d: the body ends too soon for %q to hold the %d numbers of the shape before it", i, name, want)
	}
	out := []float64{}
	if want > 0 {
		out = make([]float64, 0, want)
	}
	for i = skipSpace(buf, i+1); i == len(buf) || buf[i] != ']'; i = skipSpace(buf, i) {
		if len(out) > 0 {
			if i == len(buf) || buf[i] != ',' {
				return nil, i, syntaxError(buf, i, "',' or ']' after an array element")
			}
			i = skipSpace(buf, i+1)
		}
		end := scanNumber(buf, i)
		if end < 0 {
			return nil, i, fmt.Errorf("%s[%d] at byte %d is not a JSON number", name, len(out), i)
		}
		if len(out) == want {
			return nil, i, fmt.Errorf("byte %d: %q holds more than the %d numbers of the shape before it", i, name, want)
		}
		v, err := strconv.ParseFloat(string(buf[i:end]), 64)
		if err != nil {
			return nil, i, fmt.Errorf("%s[%d] at byte %d: %w", name, len(out), i, err)
		}
		if len(out) == cap(out) {
			grown := make([]float64, len(out), min(max(2*cap(out), 64), room))
			copy(grown, out)
			out = grown
		}
		out = append(out, v)
		i = end
	}
	i++
	if want >= 0 && len(out) != want {
		return nil, i, fmt.Errorf("%q holds %d numbers, the shape before it needs %d", name, len(out), want)
	}
	return out, i, nil
}

// scanNumber returns the index past the JSON number starting at buf[i],
// or −1 if none starts there. The grammar is RFC 8259's, narrower than
// strconv.ParseFloat's: no leading '+' or '.', no bare trailing '.', no
// leading zeros, no hex, underscores, Inf or NaN.
func scanNumber(buf []byte, i int) int {
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	if i < len(buf) && buf[i] == '0' {
		i++
	} else if i = skipDigits(buf, i); i < 0 {
		return -1
	}
	if i < len(buf) && buf[i] == '.' {
		if i = skipDigits(buf, i+1); i < 0 {
			return -1
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		i = skipDigits(buf, i)
	}
	return i
}

// skipDigits returns the index past the run of digits at buf[i], or −1
// if there is none.
func skipDigits(buf []byte, i int) int {
	start := i
	for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// errNonFinite marks a result that JSON cannot carry: the request is
// answered 500 naming the value, never a 200 cut short.
var errNonFinite = errors.New("result is not finite")

// writeBuffer is the one buffer a success response is printed through.
const writeBuffer = 64 << 10

// writeResult answers a completed request: the reflected envelope with
// "x", "q" and "r" appended to it, printed from the result's own storage
// in the digits encoding/json prints — shortest form that reads back to
// the same float64, 'e' notation below 1e-6 and from 1e21. A result JSON
// cannot carry is an errNonFinite returned before anything is written;
// any other error is a failed write after the status line went out.
func writeResult(w http.ResponseWriter, res *cacqr.SubmitResult, wantFactors bool, wall time.Duration) error {
	type array struct {
		name string
		vals []float64
	}
	arrays := []array{{"x", res.X}}
	if wantFactors {
		// A streamed run holds no Q — it is as big as the input — so it
		// is never returned; R is n×n and small.
		if res.Q != nil {
			arrays = append(arrays, array{"q", res.Q.Data})
		}
		arrays = append(arrays, array{"r", res.R.Data})
	}
	for _, a := range arrays {
		for k, v := range a.vals {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("%w: %s[%d] is %v", errNonFinite, a.name, k, v)
			}
		}
	}
	if math.IsInf(res.CondEst, 0) || math.IsNaN(res.CondEst) {
		// A rank-deficient matrix factors (Householder), but its κ is +Inf.
		return fmt.Errorf("%w: cond_est is %v", errNonFinite, res.CondEst)
	}
	head, err := json.Marshal(buildResponse(res, wall))
	if err != nil {
		return fmt.Errorf("%w: %w", errNonFinite, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := append(make([]byte, 0, writeBuffer), head[:len(head)-1]...)
	for _, a := range arrays {
		if len(a.vals) == 0 {
			continue
		}
		buf = append(append(append(buf, `,"`...), a.name...), `":[`...)
		for k, v := range a.vals {
			if len(buf) > writeBuffer-32 { // -0.0000012345678901234567: no float64 prints in more than 25 bytes
				if _, err := w.Write(buf); err != nil {
					return fmt.Errorf("writing response: %w", err)
				}
				buf = buf[:0]
			}
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = appendFloat(buf, v)
		}
		buf = append(buf, ']')
	}
	if _, err := w.Write(append(buf, '}', '\n')); err != nil {
		return fmt.Errorf("writing response: %w", err)
	}
	return nil
}

// appendFloat prints a finite v byte for byte as encoding/json does.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs > 0 && abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
