// Package core stands in for internal/core, the algorithm layer.
package core

import (
	"cfr3d"
	"costmodel"
	"lin"
)

// workspaceWords is the grid rank body asking for its memory row, which
// sizes its workspace: the one price this file may name.
func workspaceWords(m, n, c, d int) (int, error) {
	return costmodel.CACQR2Memory(m, n, costmodel.Params{C: c, D: d})
}

// The grid adapter's factor step is CFR3D on the subcube.
func gridStep(z *lin.Matrix) (*lin.Matrix, error) { return cfr3d.Factor(z) }
