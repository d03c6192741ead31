package lin

// CholInvInto is the fixture's factor kernel: (L, L⁻¹) of a symmetric
// positive definite matrix.
func CholInvInto(a, l, y *Matrix) error { return nil }

// CholInv is CholInvInto into new matrices.
func CholInv(a *Matrix) (l, y *Matrix, err error) {
	l, y = NewMatrix(a.Rows, a.Cols), NewMatrix(a.Rows, a.Cols)
	return l, y, CholInvInto(a, l, y)
}
