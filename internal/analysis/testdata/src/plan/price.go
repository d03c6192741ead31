// Package plan stands in for internal/plan, where every whole algorithm
// is priced.
package plan

import "costmodel"

func price(m, n int) (float64, int, error) {
	p := costmodel.Params{C: 2, D: 4}
	c, err := costmodel.CACQR2(m, n, p)
	if err != nil {
		return 0, 0, err
	}
	if _, err := costmodel.ShiftedCACQR3(m, n, p); err != nil {
		return 0, 0, err
	}
	words, err := costmodel.CACQR2Memory(m, n, p)
	return c, words, err
}
