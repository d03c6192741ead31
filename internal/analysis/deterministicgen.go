package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicgen: the generator packages must be bitwise-replayable.
// The streaming tier's CholeskyQR2 regenerates its input from the seed
// on every one of its two to five passes, and the Q it writes is the Q
// whose Gram matrix it factored only if generation is a pure function
// of (seed, position). Two things break that silently:
//
//   - the global math/rand generator (rand.Float64, rand.Intn, ...):
//     shared process-wide state any other goroutine can advance;
//   - iterating a map to produce output: Go randomizes map order per
//     run, so anything derived from the walk order differs run to run.
//
// Seeded generators (rand.New(rand.NewSource(seed))) are the sanctioned
// pattern and are not flagged, and test files generate nothing that a
// pass regenerates, so they are not checked.
var DeterministicGen = &Analyzer{
	Name: "deterministicgen",
	Doc:  "generator packages must not use global math/rand state or map-iteration order",
	AppliesTo: func(pkgPath string) bool {
		return pathIn(pkgPath, "cacqr/internal/lin", "cacqr/internal/stream")
	},
	Run: runDeterministicGen,
}

// globalRandFuncs are the math/rand package-level functions that read
// or advance the shared global generator.
var globalRandFuncs = map[string]bool{
	"Float64": true, "Float32": true, "Int": true, "Intn": true,
	"Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Uint32": true, "Uint64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDeterministicGen(pass *Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				pkgPath := fn.Pkg().Path()
				if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[fn.Name()] {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
						pass.Reportf(n.Pos(), "global math/rand state breaks bitwise replay; use rand.New(rand.NewSource(seed))")
					}
				}
			case *ast.RangeStmt:
				t := pass.TypesInfo.Types[n.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration order is randomized per run; generator output derived from it is not replayable — iterate sorted keys instead")
				}
			}
			return true
		})
	}
	return nil
}
