package core

import "costmodel"

func panelWords(m, n, b, c, d int) (int, error) {
	return costmodel.PanelCACQR2Memory(m, n, b, costmodel.Params{C: c, D: d})
}

// A rank body pricing a whole algorithm is a second price beside the
// planner's.
func modelFlops(m, n, c, d int) float64 {
	f, _ := costmodel.ShiftedCACQR3(m, n, costmodel.Params{C: c, D: d}) // want "one-price: cacqr/internal/costmodel.ShiftedCACQR3"
	return f
}
