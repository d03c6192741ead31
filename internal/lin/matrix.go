package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Data holds Rows*Cols elements;
// element (i, j) lives at Data[i*Stride+j]. Stride ≥ Cols allows views
// into larger matrices without copying.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("lin: incompatible matrix shapes")

// ErrNotPositiveDefinite reports a Cholesky failure: a non-positive or
// non-finite pivot was encountered, meaning the input is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("lin: matrix is not positive definite")

// ErrSingular reports a singular triangular factor.
var ErrSingular = errors.New("lin: matrix is singular")

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("lin: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromSlice builds an r×c matrix from row-major data. The slice is copied.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("lin: FromSlice got %d elements for %dx%d", len(data), r, c))
	}
	d := make([]float64, len(data)) // make+copy: allocated without a clearing pass
	copy(d, data)
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: d}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("lin: At(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("lin: Set(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Stride+j] = v
}

// Clone returns a deep copy with a compact stride.
func (m *Matrix) Clone() *Matrix {
	if m.Stride == m.Cols {
		return FromSlice(m.Rows, m.Cols, m.Data[:m.Rows*m.Cols])
	}
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Stride:i*out.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
}

// View returns a view of the r×c submatrix whose top-left corner is (i, j).
// The view shares storage with m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	v := m.Slice(i, j, r, c)
	return &v
}

// Slice is View with the header returned by value, for a caller that
// keeps headers in storage of its own.
func (m *Matrix) Slice(i, j, r, c int) Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("lin: View(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	// An empty view at the bottom edge starts past the last stored row.
	return Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[min(i*m.Stride+j, len(m.Data)):]}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// scaleBy applies the BLAS beta convention to m: 0 overwrites whatever m
// held (NaN included), 1 leaves it alone.
func (m *Matrix) scaleBy(beta float64) {
	switch beta {
	case 0:
		m.Zero()
	case 1:
	default:
		m.Scale(beta)
	}
}

// checkExtent panics unless Data covers every element the shape
// addresses. The Go code would fault on the first bad index anyway; the
// assembly kernel would not.
func (m *Matrix) checkExtent() {
	if m.Rows > 0 && m.Cols > 0 && (m.Stride < m.Cols || len(m.Data) < (m.Rows-1)*m.Stride+m.Cols) {
		panic(ErrShape)
	}
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes the transpose of m into dst (Cols × Rows, a view
// is fine), which must not overlap m.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*dst.Stride+i] = m.Data[i*m.Stride+j]
		}
	}
}

// Equal reports whether m and n have the same shape and elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Data[i*m.Stride+j] != n.Data[i*n.Stride+j] {
				return false
			}
		}
	}
	return true
}

// EqualWithin reports whether m and n agree elementwise within tol.
func (m *Matrix) EqualWithin(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if math.Abs(m.Data[i*m.Stride+j]-n.Data[i*n.Stride+j]) > tol {
				return false
			}
		}
	}
	return true
}

// Add computes m += x.
func (m *Matrix) Add(x *Matrix) {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		xi := x.Data[i*x.Stride : i*x.Stride+x.Cols]
		for j := range mi {
			mi[j] += xi[j]
		}
	}
}

// Sub computes m -= x.
func (m *Matrix) Sub(x *Matrix) {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		xi := x.Data[i*x.Stride : i*x.Stride+x.Cols]
		for j := range mi {
			mi[j] -= xi[j]
		}
	}
}

// SubFrom computes m = x − m.
func (m *Matrix) SubFrom(x *Matrix) {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		xi := x.Data[i*x.Stride : i*x.Stride+x.Cols]
		for j := range mi {
			mi[j] = xi[j] - mi[j]
		}
	}
}

// Scale computes m *= a.
func (m *Matrix) Scale(a float64) {
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range mi {
			mi[j] *= a
		}
	}
}

// IsUpperTriangular reports whether every element strictly below the
// diagonal is at most tol in magnitude.
func (m *Matrix) IsUpperTriangular(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i && j < m.Cols; j++ {
			if math.Abs(m.Data[i*m.Stride+j]) > tol {
				return false
			}
		}
	}
	return true
}

// IsLowerTriangular reports whether every element strictly above the
// diagonal is at most tol in magnitude.
func (m *Matrix) IsLowerTriangular(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.Data[i*m.Stride+j]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxDim = 8
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < maxDim; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols && j < maxDim; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.Data[i*m.Stride+j])
		}
		if m.Cols > maxDim {
			b.WriteString(" ...")
		}
	}
	if m.Rows > maxDim {
		b.WriteString("; ...")
	}
	b.WriteByte(']')
	return b.String()
}
