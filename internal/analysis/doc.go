// Package analysis is cacqr's static-analysis suite: six custom
// analyzers that mechanically enforce the invariants the rest of the
// repo's correctness rests on, plus the tiny framework they run in.
//
// The invariants are conventions that have each already caused a real
// bug or a hand-audited refactor:
//
//   - workersknob: parallelism in the kernel packages (internal/lin,
//     internal/core, internal/tsqr) must come from the Workers knob via
//     the sanctioned worker pool — no runtime.NumCPU() and no bare
//     `go` fan-out, or the knob threaded through every path since PR 2
//     silently stops meaning anything.
//   - deterministicgen: the generator packages (internal/testmat,
//     internal/stream) must stay bitwise-replayable — no global
//     math/rand state and no map-iteration-ordered output, because the
//     streaming tier's CholeskyQR2 regenerates its input on every pass
//     and all passes must see identical bits.
//   - obssafety: the obs span API is nil-safe by contract. Outside
//     internal/obs, code must not branch on span/tracer nilness (the
//     whole point is that instrumented code never checks "is tracing
//     on"); inside internal/obs, a pointer-receiver method on a
//     nil-safe type must guard the receiver before touching its fields.
//   - muguard: struct fields annotated `// guarded by mu` may only be
//     accessed while the sibling mutex is held, checked by a simple
//     intraprocedural lock-state walk — the serve.Stats invariants
//     (Lookups == Hits+Misses) depend on it.
//   - floatcompare: no ==/!= on floating-point operands. Kernel code
//     and bitwise-equality tests that genuinely mean bit comparison opt
//     a file in with `//lint:allow floatcompare <why>`.
//   - errwrap: fmt.Errorf with an error argument must use %w, so
//     errors.Is routing (ErrIllConditioned → shifted retry,
//     ErrOverloaded → 503) keeps working through wrapping.
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer,
// Pass, Diagnostic, an analysistest-style fixture runner — but is
// built on the standard library alone (go/ast, go/types, and the
// go/importer source importer), because this module deliberately has
// zero external dependencies. Packages are enumerated with `go list
// -json` and type-checked from source.
//
// Two directives tune the suite, both verified by the driver (an
// unknown analyzer name or a missing justification is itself a
// diagnostic):
//
//	//lint:allow <analyzer> <justification>   — file-scope opt-out
//	//lint:ignore <analyzer> <justification>  — suppresses the same or
//	                                            next line only
//
// cmd/cacqrlint runs the suite over package patterns and exits
// non-zero on any diagnostic; CI runs it over ./... in the lint job.
package analysis
