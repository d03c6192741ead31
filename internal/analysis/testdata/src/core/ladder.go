package core

import "lin"

// The sequential ladder owns its result: outside cacqr.go and panel.go,
// core may allocate and clone matrices.
func sequential(a *lin.Matrix) *lin.Matrix {
	q := a.Clone()
	r := lin.NewMatrix(a.Cols, a.Cols)
	_ = r
	return q
}

// The replicated step is the ladder's own: the one place core factors a
// whole Gram matrix.
func step(g *lin.Matrix) (*lin.Matrix, error) {
	l, _, err := lin.CholInv(g)
	return l, err
}
