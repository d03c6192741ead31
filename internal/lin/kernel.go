package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

// The one level-3 engine. GEMM, SYRK and TRMM are all the same loop nest
// around one register-tiled micro-kernel,
//
//	C[tileM×tileN] = alpha·Σ_k a(·,k) ⊗ b(k,·) + beta·C,
//
// with one contract and three bodies, picked once at init: kernelAVX512
// (kernel_amd64.s, a 16×8 tile of ZMM FMAs, when the CPU and OS support
// AVX-512F), kernelAVX2 on the tile's 4-row quarters (AVX2+FMA but no
// AVX-512; only the quarters that hold a needed row), and kernelGo below
// (every other GOARCH, -tags purego, older CPUs). The two assembly bodies
// run the same fused chain per element, so they agree bitwise.
// Transposition is absorbed by the operand strides (A) or by packing (B);
// SYRK runs the tiles that touch the upper triangle; TRMM packs the
// triangular operand with its structural zeros and gives every column
// tile its triangular k-range.
// Edge tiles are zero-padded into full tiles, so every element of C sees
// the same k-ordered chain of multiply-adds wherever it lies, and tiles
// are anchored at multiples of the tile size from C's origin, so any
// split of the rows into tileM-aligned chunks — serial or parallel — is
// bitwise the same computation. blockK (and, in TRMM, tileN) decides
// where a chain restarts; tileM and blockM only schedule the work.

const (
	tileM  = 16  // micro-kernel tile rows: one ZMM register each, or four 4-row AVX2 quarters
	tileN  = 8   // micro-kernel tile columns: one ZMM or two YMM registers
	blockK = 128 // contraction block: a blockK×tileN panel of B is 8 KB of L1
	blockM = 256 // rows per chunk: a blockM×blockK block of A is 256 KB of L2
)

// triMode says where a product is structurally zero.
type triMode int8

const (
	dense  triMode = iota
	symC           // only tiles touching C's upper triangle are computed (SYRK)
	upperB         // B(k,j) = 0 for k > j
	lowerB         // B(k,j) = 0 for k < j
)

// product is one C = beta·C + alpha·A·B in the micro-kernel's terms:
// A(i,k) = a[i*ars+k*aks], B(k,j) = b[k*bks+j*bjs], C(i,j) =
// c[i*cis+j*cjs]. With upperB/lowerB, C may alias A (in-place TRMM).
type product struct {
	k           int
	alpha, beta float64
	a           []float64
	ars, aks    int
	b           []float64
	bks, bjs    int
	c           []float64
	cis, cjs    int
	mode        triMode
}

// run computes the m×n product on up to workers goroutines; flops is the
// caller's cost estimate, compared against parallelFlopCutoff.
func (p *product) run(workers, m, n int, flops int64) {
	if workers = resolveWorkers(workers); workers > 1 && flops >= parallelFlopCutoff {
		// Two chunks per worker, so that dynamic claiming levels SYRK's
		// triangular load, each no taller than blockM.
		grain := min(blockM, (m+2*workers*tileM-1)/(2*workers*tileM)*tileM)
		q := *p // the pool keeps the closure; p itself must not escape
		parallelFor(workers, m, grain, func(lo, hi int) { q.rows(lo, hi, n) })
		return
	}
	for lo := 0; lo < m; lo += blockM {
		p.rows(lo, min(lo+blockM, m), n)
	}
}

// rows computes rows [i0, i1) of C, i0 a multiple of tileM. Contraction
// blocks are outermost so that a blockK-deep slice of both operands
// stays cached across every tile that uses it. In-place TRMM fixes the
// order: a column tile's own block comes first (its inputs are read
// before it is stored), and tiles still to come have not been written.
func (p *product) rows(i0, i1, n int) {
	rev := p.mode == upperB
	j0 := 0
	if p.mode == symC {
		j0 = i0 / tileN * tileN
	}
	blocks, tiles := (p.k+blockK-1)/blockK, (n-j0+tileN-1)/tileN
	for x := 0; x < blocks; x++ {
		ka := x * blockK
		if rev {
			ka = (blocks - 1 - x) * blockK
		}
		ke := min(ka+blockK, p.k)
		for y := 0; y < tiles; y++ {
			jt := j0 + y*tileN
			if rev {
				jt = j0 + (tiles-1-y)*tileN
			}
			w := min(tileN, n-jt)
			lo, hi, first := ka, ke, ka == 0
			switch p.mode {
			case upperB: // k < jt+w
				hi = min(ke, jt+w)
				first = hi == jt+w
			case lowerB: // k ≥ jt
				lo = max(ka, jt)
				first = lo == jt
			}
			if lo >= hi {
				continue
			}
			beta := 1.0
			if first {
				beta = p.beta
			}
			p.panel(i0, i1, jt, w, lo, hi-lo, beta)
		}
	}
}

// panel updates the column tile [jt, jt+w) of rows [i0, i1) with the kc
// contraction steps from ka. B is used in place when it is already a
// full-width row-major strip, and packed otherwise.
func (p *product) panel(i0, i1, jt, w, ka, kc int, beta float64) {
	b, bks := p.b[ka*p.bks+jt*p.bjs:], p.bks
	if p.bjs != 1 || w < tileN || p.mode > symC {
		var buf [blockK * tileN]float64
		sign := [...]int{upperB: -1, lowerB: 1}[p.mode]
		pack(buf[:], tileN, b, p.bjs, p.bks, w, kc, sign, jt-ka)
		b, bks = buf[:], tileN
	}
	for it := i0; it < i1; it += tileM {
		if p.mode == symC && jt+w <= it {
			break // this tile and every one below it lie under the diagonal
		}
		h := min(tileM, i1-it)
		rows := h // the rows the kernel must compute
		if p.mode == symC {
			rows = min(h, jt+w-it) // rows wholly under the diagonal are mirrored over
		}
		a, ars, aks := p.a[it*p.ars+ka*p.aks:], p.ars, p.aks
		if h < tileM {
			var buf [blockK * tileM]float64
			pack(buf[:], tileM, a, ars, aks, h, kc, 0, 0)
			a, ars, aks = buf[:], 1, tileM
		}
		c := p.c[it*p.cis+jt*p.cjs:]
		if h == tileM && w == tileN && p.cjs == 1 {
			microKernel(rows, kc, a, ars, aks, b, bks, p.alpha, beta, c, p.cis)
			continue
		}
		// Edge tile or strided C: the same kernel on a full stack tile.
		var t [tileM * tileN]float64
		if beta != 0 {
			for i := 0; i < rows; i++ {
				for j := 0; j < w; j++ {
					t[i*tileN+j] = c[i*p.cis+j*p.cjs]
				}
			}
		}
		microKernel(rows, kc, a, ars, aks, b, bks, p.alpha, beta, t[:], tileN)
		for i := 0; i < rows; i++ {
			for j := 0; j < w; j++ {
				c[i*p.cis+j*p.cjs] = t[i*tileN+j]
			}
		}
	}
}

// pack writes the kc×width panel dst[k*width+x] = src[x*sx+k*sk] for
// x < w and zero for x ≥ w. A triangular operand also gets its structural
// zeros: sign > 0 keeps x+d ≤ k only, sign < 0 keeps x+d ≥ k only. The
// operands are row-major views, so sx or sk is 1, and the source is read
// along it: a panel row at a time when sx is 1, a panel column at a time
// when sk is.
func pack(dst []float64, width int, src []float64, sx, sk, w, kc, sign, d int) {
	dst = dst[:kc*width]
	clear(dst)
	if sx == 1 {
		for k := 0; k < kc; k++ {
			lo, hi := 0, w
			if sign > 0 {
				hi = min(w, k-d+1)
			} else if sign < 0 {
				lo = max(0, k-d)
			}
			if lo < hi {
				copy(dst[k*width+lo:k*width+hi], src[k*sk+lo:k*sk+hi])
			}
		}
		return
	}
	for x := 0; x < w; x++ {
		lo, hi := 0, kc
		if sign > 0 {
			lo = max(0, x+d)
		} else if sign < 0 {
			hi = min(kc, x+d+1)
		}
		if lo >= hi {
			continue
		}
		out := dst[lo*width+x:]
		for k, v := range src[x*sx+lo : x*sx+hi] {
			out[k*width] = v
		}
	}
}

// kernelGo is the micro-kernel in portable Go on the tile's first rows
// rows: one row at a time, eight scalar accumulators, the same k-ordered
// chain per element as the assembly.
func kernelGo(rows, kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int) {
	for i := 0; i < rows; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k := 0; k < kc; k++ {
			av := a[i*ars+k*aks]
			bk := b[k*bks : k*bks+tileN : k*bks+tileN]
			s0 += av * bk[0]
			s1 += av * bk[1]
			s2 += av * bk[2]
			s3 += av * bk[3]
			s4 += av * bk[4]
			s5 += av * bk[5]
			s6 += av * bk[6]
			s7 += av * bk[7]
		}
		row := c[i*cs : i*cs+tileN : i*cs+tileN]
		for j, s := range [tileN]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			if beta == 0 {
				row[j] = alpha * s
			} else {
				row[j] = alpha*s + beta*row[j]
			}
		}
	}
}
