package core

import (
	"cfr3d"
	"lin"
)

// A CholeskyQR pass written out beside the ladder: a second pass loop,
// free to fold and to type its breakdown its own way.
func secondLoop(g *lin.Matrix) (*lin.Matrix, error) {
	l, y, err := lin.CholInv(g) // want "one-pass-loop: cacqr/internal/lin.CholInv"
	if err != nil {
		return nil, err
	}
	if err := lin.CholInvInto(g, l, y); err != nil { // want "one-pass-loop: cacqr/internal/lin.CholInvInto"
		return nil, err
	}
	return cfr3d.Factor(g) // want "one-pass-loop: cacqr/internal/cfr3d.Factor"
}
