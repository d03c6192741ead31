//go:build amd64 && !purego

package cacqr

//lint:allow floatcompare the probe tells a fused chain from an unfused one by exact value

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cacqr/internal/lin"
)

// bitsHash is the first 16 hex digits of the SHA-256 of d's float64 bit
// patterns, little-endian, row-major.
func bitsHash(d *Dense) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range d.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// kernelFuses reports whether the level-3 engine runs a fused
// multiply-add chain: (−1)·1 + x·x with x = 1+2⁻²⁷ is exactly
// 2⁻²⁶+2⁻⁵⁴ when x·x is not rounded first, and 2⁻²⁶ when it is.
func kernelFuses() bool {
	x := 1 + math.Ldexp(1, -27)
	a := &lin.Matrix{Rows: 1, Cols: 2, Stride: 2, Data: []float64{-1, x}}
	b := &lin.Matrix{Rows: 2, Cols: 1, Stride: 1, Data: []float64{1, x}}
	c := lin.NewMatrix(1, 1)
	lin.Gemm(false, false, 1, a, b, 0, c)
	return c.At(0, 0) != math.Ldexp(1, -26)
}

// TestKernelWidthNeverMovesBits pins Q and R, bit for bit, as the 4×8
// AVX2 kernel computed them. Every assembly body of the micro-kernel
// runs the same fused chain per element, so a new vector width, tile
// height or schedule must reproduce these hashes; only a change to the
// contraction order (blockK, the chain itself, a split of the sum) may
// move them, and then on purpose. The serial/parallel bitwise tests
// cannot see such a move: both sides would move together. kernelGo does
// not fuse on amd64, so on a CPU without AVX2+FMA the pins do not apply.
func TestKernelWidthNeverMovesBits(t *testing.T) {
	if !kernelFuses() {
		t.Skip("the portable kernel runs here: its unfused chain has other bits")
	}
	seq := []struct {
		m, n   int
		qr     func(*Dense) (q, r *Dense, err error)
		name   string
		wantQR [2]string
	}{
		{8192, 128, CholeskyQR2, "CholeskyQR2", [2]string{"d1d8e2d6fccdf9aa", "d274cc4560010b32"}},
		{8192, 128, ShiftedCQR3, "ShiftedCQR3", [2]string{"1c1c37ff9b3f5ce6", "613e27f479bacd49"}},
		{8192, 128, HouseholderQR, "HouseholderQR", [2]string{"3f0b6d27182d448a", "5a3bd481347d14d2"}},
		{512, 32, CholeskyQR2, "CholeskyQR2", [2]string{"df2635d1abd90eab", "2c1ffebcfb7d779d"}},
		{512, 32, ShiftedCQR3, "ShiftedCQR3", [2]string{"4b6f7ba7156bd094", "af73e9fb75aa8d4d"}},
		{512, 32, HouseholderQR, "HouseholderQR", [2]string{"8400f1f926b47916", "4f31d387d9c7e97e"}},
		{1000, 37, CholeskyQR2, "CholeskyQR2", [2]string{"a96b2a6b6c31b308", "2112ec1dd5d81a0f"}},
		{1000, 37, ShiftedCQR3, "ShiftedCQR3", [2]string{"d5a1e74b49b03fa0", "01f7455eb1ed09b5"}},
		{1000, 37, HouseholderQR, "HouseholderQR", [2]string{"c5da062db217259c", "b867840080f6307d"}},
		{300, 100, CholeskyQR2, "CholeskyQR2", [2]string{"3d4503687002d9d1", "28a24da6f18a6175"}},
		{300, 100, ShiftedCQR3, "ShiftedCQR3", [2]string{"80b733e4a6f081dc", "f54e480e78637845"}},
		{300, 100, HouseholderQR, "HouseholderQR", [2]string{"147359f79611f120", "6b82697fb43b89bb"}},
		{1024, 128, CholeskyQR2, "CholeskyQR2", [2]string{"fb8c777de3852967", "643ac5c439fe6efe"}},
		{1024, 128, ShiftedCQR3, "ShiftedCQR3", [2]string{"d3a7b5b880f0796c", "2fb8564072f55cbd"}},
		{1024, 128, HouseholderQR, "HouseholderQR", [2]string{"55c9490be38e6bf0", "b35abda82bcad153"}},
		{77, 77, CholeskyQR2, "CholeskyQR2", [2]string{"51b4661586240186", "adb49914015d6769"}},
		{77, 77, ShiftedCQR3, "ShiftedCQR3", [2]string{"63e0a409e940e0af", "bd4c738c3d925a8e"}},
		{77, 77, HouseholderQR, "HouseholderQR", [2]string{"3fd474b700f72ab5", "c273077ae51687d6"}},
	}
	for _, c := range seq {
		q, r, err := c.qr(RandomMatrix(c.m, c.n, 7))
		if err != nil {
			t.Fatalf("%s %dx%d: %v", c.name, c.m, c.n, err)
		}
		if got := [2]string{bitsHash(q), bitsHash(r)}; got != c.wantQR {
			t.Errorf("%s %dx%d: Q, R hash %v, want %v", c.name, c.m, c.n, got, c.wantQR)
		}
	}

	grids := []struct {
		spec              GridSpec
		wantQR            [2]string
		msgs, words, flop int64
	}{
		{GridSpec{C: 2, D: 4}, [2]string{"996f6e8a7e48a2a1", "0c5d6b72757ecb34"}, 218, 1138688, 9577464},
		{GridSpec{C: 2, D: 2}, [2]string{"4899d20f91c96c4b", "1b76c386aac11624"}, 213, 1548288, 17966072},
		{GridSpec{C: 1, D: 4}, [2]string{"1b03c53eabd3e2a3", "600b825fa4ff3c44"}, 13, 524288, 39845886},
	}
	a := RandomMatrix(2048, 128, 7)
	for _, g := range grids {
		res, err := FactorizeOnGrid(a, g.spec, Options{})
		if err != nil {
			t.Fatalf("grid %+v: %v", g.spec, err)
		}
		if got := [2]string{bitsHash(res.Q), bitsHash(res.R)}; got != g.wantQR {
			t.Errorf("grid %+v: Q, R hash %v, want %v", g.spec, got, g.wantQR)
		}
		if s := res.Stats; s.Msgs != g.msgs || s.Words != g.words || s.Flops != g.flop {
			t.Errorf("grid %+v: msgs/words/flops %d/%d/%d, want %d/%d/%d", g.spec, s.Msgs, s.Words, s.Flops, g.msgs, g.words, g.flop)
		}
	}
}
