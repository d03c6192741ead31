// Package costmodel stands in for internal/costmodel: the whole-algorithm
// prices and memory rows the one-price rows guard.
package costmodel

// Params is the grid a price is for.
type Params struct{ C, D int }

func CACQR2(m, n int, p Params) (float64, error) { return float64(m * n), nil }

func CACQR2Memory(m, n int, p Params) (int, error) { return m * n / (p.C * p.D), nil }

func PanelCACQR2Memory(m, n, b int, p Params) (int, error) { return m * b / (p.C * p.D), nil }

func ShiftedCACQR3(m, n int, p Params) (float64, error) { return float64(3 * m * n), nil }
