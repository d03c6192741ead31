package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package: the unit analyzers run
// over. In-package test files are included (the float-compare and
// determinism invariants bind tests too); external `package foo_test`
// files are loaded as their own Package with path "<path>_test".
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the slice of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList enumerates the packages matching patterns via the go command,
// which is the authority on build constraints and module layout. It
// must run inside the module (any directory under the module root).
func goList(patterns ...string) ([]listEntry, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}
	var entries []listEntry
	dec := json.NewDecoder(&out)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// newInfo allocates the types.Info maps every analyzer may consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// parseFiles parses the named files (with comments — directives live
// there) from dir into fset.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckFiles type-checks already-parsed files as one package under
// path. The analysistest runner uses it directly on fixture files; the
// loader uses it for every listed package. imp is shared so the source
// importer's cache amortizes across packages (nil = fresh importer).
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	if imp == nil {
		imp = importer.ForCompiler(fset, "source", nil)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load enumerates, parses, and type-checks the packages matching
// patterns (e.g. "./..."). It returns one Package per listed package
// (test files folded in) plus one per external test package.
func Load(patterns ...string) ([]*Package, error) {
	entries, err := goList(patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, e := range entries {
		if len(e.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", e.ImportPath)
		}
		names := append(append([]string{}, e.GoFiles...), e.TestGoFiles...)
		if len(names) > 0 {
			files, err := parseFiles(fset, e.Dir, names)
			if err != nil {
				return nil, err
			}
			pkg, err := CheckFiles(fset, e.ImportPath, files, imp)
			if err != nil {
				return nil, err
			}
			pkg.Dir = e.Dir
			pkgs = append(pkgs, pkg)
		}
		if len(e.XTestGoFiles) > 0 {
			files, err := parseFiles(fset, e.Dir, e.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkg, err := CheckFiles(fset, e.ImportPath+"_test", files, imp)
			if err != nil {
				return nil, err
			}
			pkg.Dir = e.Dir
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}
