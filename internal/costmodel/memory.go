package costmodel

import "fmt"

// Memory-footprint model for the paper's §III-B claim: CA-CQR2's
// per-process footprint is Θ(mn/(dc) + n²/c²) words, and §IV's
// observation that "the parameter c determines the memory footprint
// overhead; the more replication being used (c), the larger the expected
// communication improvement (√c)".

// CACQR2Memory returns the peak per-process words held by the CA-CQR2
// implementation on a c×d×c grid, counted from the blocks the
// implementation holds at once — and held to it: a rank's workspace is
// sized by this row less the input block, and the root package's
// TestWorkspaceStaysInsideMemoryModel asserts that nothing overflows it.
//
//	A, Q, and one more tall block            — 3 · mn/(dc)
//	R, R₁, Z, L, Y, Yᵀ and its broadcast copy — 7 · n²/c²
//
// A is the caller's input block. Q is first the broadcast copy of A's
// block (Algorithm 1 line 1), then Q₁, then — the second pass runs in
// place — Q. The third tall block is the broadcast copy W of the Gram
// step, later the local product awaiting its depth Allreduce. R₂ becomes
// R in place; the Gram step's X and partial sums and CFR3D's
// temporaries come and go under the same seven blocks, as do the four
// whole n₀ × n₀ panels of CFR3D's base case at the default n₀ = n/c² — a
// larger BaseSize, or an n whose halving stops early, takes the excess
// from the heap, where the workspace counts it.
//
// InverseDepth k > 0 adds (1 − 2⁻ᵏ) · mn/(dc): each level of the blocked
// substitution Q = A·R⁻¹ holds half-width blocks of the level above —
// X₁ and the update X₁·L₂₁ᵀ it feeds — while the level below runs, so
// the flops the knob saves are paid for in memory as well as latency.
func CACQR2Memory(m, n int, prm CACQRParams) (int64, error) {
	c, d := prm.C, prm.D
	if c < 1 || d < c {
		return 0, fmt.Errorf("costmodel: invalid grid c=%d d=%d", c, d)
	}
	if m%d != 0 || n%c != 0 {
		return 0, fmt.Errorf("costmodel: %dx%d not divisible by grid %dx%d", m, n, d, c)
	}
	mloc := int64(m / d)
	nloc := int64(n / c)
	tall := mloc * nloc
	return 3*tall + (tall - tall>>min(max(prm.InverseDepth, 0), 62)) + 7*nloc*nloc, nil
}

// TSQRMemory returns the peak per-process words of the binary-tree TSQR
// (internal/tsqr) on p processors: the local block, its Householder Q,
// and the assembled output block (3 · mn/p), plus the up-sweep path of
// at most log₂p stacked 2n×n tree factors and the small n×n workspaces
// (stacked pair, B, R): (2·log₂p + 5) · n².
func TSQRMemory(m, n, p int) (int64, error) {
	if p < 1 || m%p != 0 || m/p < n {
		return 0, fmt.Errorf("costmodel: tsqr shape m=%d n=%d P=%d", m, n, p)
	}
	mloc := int64(m / p)
	nn := int64(n)
	return 3*mloc*nn + (2*log2Ceil(p)+5)*nn*nn, nil
}

// BlockedTSQRMemory returns the peak per-process words of the blocked
// TSQR (tsqr.BlockedFactor) on p processors: the local block, its
// working copy, and the accumulated Q (3 · mn/p), the replicated n×n R,
// the widest panel's own tree footprint (TSQRMemory of the m×b panel),
// and the BGS2 coefficient strips (3 · b·(n−b): partial, allreduced
// coefficients, and the accumulated off-diagonal R block).
func BlockedTSQRMemory(m, n, b, p int) (int64, error) {
	if b < 1 || n%b != 0 {
		return 0, fmt.Errorf("costmodel: blocked-tsqr panel width %d does not divide n=%d", b, n)
	}
	panel, err := TSQRMemory(m, b, p)
	if err != nil {
		return 0, err
	}
	mloc := int64(m / p)
	nn := int64(n)
	bb := int64(b)
	return 3*mloc*nn + nn*nn + panel + 3*bb*(nn-bb), nil
}

// PanelCACQR2Memory returns the peak per-process words of the panel-wise
// variant: the input block, its in-place trailing copy and the
// accumulated Q (3 · mn/(dc)), the n²/c² local R block, and the larger
// of what the two halves of a panel step hold on top of those:
//
//   - the widest panel's own factorization, CACQR2Memory of the m×b
//     panel (which counts the panel's input block a second time: it is a
//     view of the trailing copy);
//   - the first panel's trailing update A_rest −= Q_k·R_k,rest: Q_k and
//     its broadcast copy (2 · (m/d)(b/c)), R_kk ((b/c)²), R_k,rest and
//     its broadcast copy, and the update with the local product it is
//     reduced from (2 · (m/d + b/c) · (n−b)/c).
//
// The update's two m/d × (n−b)/c blocks are what this row left out until
// the rank body's storage was measured against it; with narrow panels
// they are most of it.
func PanelCACQR2Memory(m, n, b int, prm CACQRParams) (int64, error) {
	c, d := prm.C, prm.D
	if b < 1 || b%c != 0 || n%b != 0 {
		return 0, fmt.Errorf("costmodel: panel width %d incompatible with c=%d, n=%d", b, c, n)
	}
	panel, err := CACQR2Memory(m, b, prm)
	if err != nil {
		return 0, err
	}
	mloc := int64(m / d)
	nloc := int64(n / c)
	bloc := int64(b / c)
	update := 2*mloc*bloc + bloc*bloc + 2*(mloc+bloc)*(nloc-bloc)
	return 3*mloc*nloc + nloc*nloc + max(panel, update), nil
}

// PGEQRFMemory returns the baseline's per-process words: the local
// block-cyclic matrix plus a replicated panel and update workspace.
func PGEQRFMemory(m, n, pr, pc, nb int) (int64, error) {
	if m%pr != 0 || n%nb != 0 {
		return 0, fmt.Errorf("costmodel: pgeqrf shape %dx%d grid %dx%d nb %d", m, n, pr, pc, nb)
	}
	mloc := int64(m / pr)
	nlocMax := int64((n/nb + pc - 1) / pc * nb)
	panel := mloc*int64(nb) + int64(nb*nb)
	return mloc*nlocMax + 2*panel, nil
}
