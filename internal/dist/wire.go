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
func Flatten(m *lin.Matrix) []float64 {
	if m.Stride == m.Cols {
		n := m.Rows * m.Cols
		return m.Data[:n:n]
	}
	out := make([]float64, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		out = append(out, m.Data[i*m.Stride:i*m.Stride+m.Cols]...)
	}
	return out
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
