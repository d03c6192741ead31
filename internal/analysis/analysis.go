package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks could move onto
// the real framework wholesale if the module ever takes the dependency.
type Analyzer struct {
	// Name is the directive-addressable identifier (lowercase, no
	// spaces): `//lint:allow <Name> ...` suppresses this analyzer.
	Name string
	// Doc is the one-line summary cacqrlint -list prints.
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path. Nil means every package. Scopes match
	// fixture packages by final path segment too (see pathIn), so the
	// analysistest fixtures exercise the same scoping as real runs.
	AppliesTo func(pkgPath string) bool
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way `go vet` does:
// file:line:col: message (analyzer).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by file, line, column, analyzer —
// stable output for CI logs and tests.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathIn reports whether pkgPath is one of the given module package
// paths, matching fixture packages by final path segment too (a
// fixture for internal/lin lives at the synthetic path "lin").
func pathIn(pkgPath string, paths ...string) bool {
	for _, p := range paths {
		if pkgPath == p {
			return true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 && pkgPath == p[i+1:] {
			return true
		}
	}
	return false
}
