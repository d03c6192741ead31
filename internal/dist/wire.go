package dist

import (
	"fmt"

	"cacqr/internal/lin"
)

// Flatten returns m's elements as the contiguous row-major []float64 the
// transport moves, for use as a payload, which transports only borrow:
// m's own storage when m is compact (Stride == Cols), a packed copy when
// it is a strided view. It and Unflatten are the wire format under the
// collectives of collect.go; algorithm code calls those.
func Flatten(m *lin.Matrix) []float64 { return flattenInto(m, nil) }

// flattenInto is Flatten with the packed copy of a strided m written to
// the front of into, storage the caller has free for the length of the
// send (nil allocates it).
func flattenInto(m *lin.Matrix, into []float64) []float64 {
	n := m.Rows * m.Cols
	if m.Stride == m.Cols {
		return m.Data[:n:n]
	}
	if into == nil {
		into = make([]float64, n)
	}
	for i := 0; i < m.Rows; i++ {
		copy(into[i*m.Cols:(i+1)*m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return into[:n]
}

// Unflatten wraps a wire-format slice as a rows × cols row-major matrix
// without copying: the matrix aliases flat. What a transport returns is
// the caller's to wrap. The length must match exactly.
func Unflatten(rows, cols int, flat []float64) (*lin.Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("dist: Unflatten to negative shape %dx%d", rows, cols)
	}
	if len(flat) != rows*cols {
		return nil, fmt.Errorf("dist: Unflatten got %d values for a %dx%d matrix (want %d)", len(flat), rows, cols, rows*cols)
	}
	return &lin.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: flat}, nil
}

// storage returns the wire-format slice a rows × cols result is written
// into: dst's own elements. A nil dst gives nil — the transport's word
// for "allocate" — and a dst that is not compact, or not that shape,
// cannot take a result.
func storage(what string, dst *lin.Matrix, rows, cols int) ([]float64, error) {
	if dst == nil {
		return nil, nil
	}
	if dst.Rows != rows || dst.Cols != cols || (dst.Stride != cols && rows > 1) {
		return nil, fmt.Errorf("dist: %s destination is %dx%d with stride %d, want a compact %dx%d", what, dst.Rows, dst.Cols, dst.Stride, rows, cols)
	}
	return dst.Data[: rows*cols : rows*cols], nil
}

// result is what a collective returns for the rows × cols values in
// flat: dst, which they were written into, or without one a matrix
// wrapped around flat.
func result(dst *lin.Matrix, rows, cols int, flat []float64) (*lin.Matrix, error) {
	if dst != nil && len(flat) == rows*cols {
		return dst, nil
	}
	return Unflatten(rows, cols, flat)
}
