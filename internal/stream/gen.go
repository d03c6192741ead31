package stream

import (
	"fmt"
	"math/rand"

	"cacqr/internal/lin"
)

// GenSource streams the deterministic random matrix that
// lin.RandomMatrix(m, n, seed) would materialize, one panel at a time —
// the source behind a daemon's over-limit "gen" requests, which must
// stay O(panel) resident however large the requested shape. The RNG
// fills row-major exactly like RandomMatrix, so at any feasible size the
// streamed matrix is bitwise-identical to the in-core one.
type GenSource struct {
	m, n int
	seed int64
	rng  *rand.Rand
	row  int
}

// NewGenSource builds the generator source for an m×n matrix.
func NewGenSource(m, n int, seed int64) (*GenSource, error) {
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("stream: bad generator dims %dx%d", m, n)
	}
	s := &GenSource{m: m, n: n, seed: seed}
	s.Reset()
	return s, nil
}

// Dims implements Source.
func (s *GenSource) Dims() (int, int) { return s.m, s.n }

// NextInto implements Source, generating the next rows straight into
// dst.
func (s *GenSource) NextInto(dst *lin.Matrix) (*lin.Matrix, error) {
	p, err := panelInto(dst, s.row, s.m, s.n)
	if err != nil {
		return nil, err
	}
	for i := range p.Data[:p.Rows*s.n] {
		p.Data[i] = 2*s.rng.Float64() - 1
	}
	s.row += p.Rows
	return p, nil
}

// Reset implements Source, restarting the deterministic sequence.
func (s *GenSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.row = 0
	return nil
}
