package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

// Implicit application of the Householder Q factor. Forming Q explicitly
// costs 2mn² flops and m×n storage; applying it to a k-column block costs
// only ~4mnk, which is what solvers want for k ≪ n.

// ApplyQT overwrites B (m×k) with Qᵀ·B, applying the stored panels
// forward: each is I − V_p·T_pᵀ·V_pᵀ on rows p0 and below.
func (f *QRFactors) ApplyQT(b *Matrix) error { return f.apply(b, true) }

// ApplyQ overwrites B (m×k) with Q·B, applying the panels in reverse,
// each as I − V_p·T_p·V_pᵀ.
func (f *QRFactors) ApplyQ(b *Matrix) error { return f.apply(b, false) }

func (f *QRFactors) apply(b *Matrix, trans bool) error {
	m, n := f.V.Rows, f.V.Cols
	if b.Rows != m {
		return ErrShape
	}
	work := make([]float64, qrPanel*b.Cols)
	np := (n + qrPanel - 1) / qrPanel
	for i := 0; i < np; i++ {
		p0 := (np - 1 - i) * qrPanel
		if trans {
			p0 = i * qrPanel
		}
		v, t := f.panel(p0)
		applyBlock(v, t, trans, b.View(p0, 0, m-p0, b.Cols), work)
	}
	return nil
}
