// Package analysis is cacqr's static-analysis suite: six custom
// analyzers that mechanically enforce the invariants the rest of the
// repo's correctness rests on, plus the tiny framework they run in.
//
// The invariants are conventions that have each already caused a real
// bug or a hand-audited refactor:
//
//   - layering: the architecture as one table (layering.go). Each row
//     names what is forbidden — a package-level name or method, a method
//     declaration, a go statement, a []float64 field encoding/json would
//     reflect over, or a package path — and the packages and files where
//     it is allowed: one communicator (collectives defined only in
//     internal/transport), one price (whole-algorithm cost-model calls
//     only in the planner and the tables), one ladder (no strided-slab
//     batch engine outside internal/lin), one wire boundary (matrix ↔
//     payload only in internal/dist), rank bodies that take their
//     matrices from the job's workspace, no sync.Pool or GC knob, the
//     daemon's numeric wire kept off encoding/json, the retired perf rig
//     kept retired, and kernel parallelism only through the Workers knob
//     (no runtime.NumCPU() or bare go statement in internal/lin,
//     internal/core or internal/tsqr outside internal/lin/parallel.go),
//     and no clock in internal/serve (no sleep, timer, ticker or
//     time.After: admission refuses and never waits).
//   - deterministicgen: the generator packages (internal/lin, home of
//     the κ-prescribed test matrices, and internal/stream) must stay
//     bitwise-replayable — no global
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
// The root package's TestLint runs the suite over ./..., so go test
// fails on any diagnostic; cmd/cacqrlint runs it over package patterns
// from the command line and exits non-zero on any diagnostic.
package analysis
