package analysis_test

import (
	"path"
	"path/filepath"
	"strings"
	"testing"

	"cacqr/internal/analysis"
	"cacqr/internal/analysis/analysistest"
)

// suite picks analyzers from the registry by name.
func suite(t *testing.T, names ...string) []*analysis.Analyzer {
	t.Helper()
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analysis.All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			t.Fatalf("no analyzer named %q in the registry", n)
		}
		out = append(out, a)
	}
	return out
}

// TestLayering runs each row of the layering table on its fixtures: the
// failing file must draw that row's diagnostic and the passing file must
// not. analysistest holds every line of the loaded packages to its want
// comments, whichever row fires there. muguard and deterministicgen ride
// along because the serve and lin fixture packages are theirs too.
func TestLayering(t *testing.T) {
	for _, tc := range []struct {
		row, fail, pass string
		more            []string
	}{
		{"perf-rig", "perf/perf.go", "other/other.go", nil},
		{"one-communicator", "grid/comm.go", "transport/comm.go", nil},
		{"one-price", "core/panel.go", "plan/price.go", nil},
		{"one-price-memory", "grid/workspace.go", "core/cacqr.go", nil},
		{"one-ladder", "core/batch.go", "lin/slab.go", nil},
		{"one-wire", "core/wire.go", "dist/dist.go", nil},
		{"per-call", "mm3d/mm3d.go", "core/ladder.go", nil},
		{"no-pool", "cacqrd/pool.go", "benchmark/bench.go", nil},
		{"json-wire", "cacqrd/wire.go", "cacqrd/request.go", nil},
		// lin/knob_test.go is exempt as a test file, tsqr opts out with a
		// file-scope allow, and other is outside the row's scope.
		{"workers", "lin/knob.go", "lin/parallel.go", []string{"tsqr", "other"}},
		{"no-clock", "serve/clock.go", "serve/latency.go", nil},
	} {
		t.Run(tc.row, func(t *testing.T) {
			pkgs := []string{path.Dir(tc.fail)}
			if p := path.Dir(tc.pass); p != pkgs[0] {
				pkgs = append(pkgs, p)
			}
			diags := analysistest.Run(t, "testdata", suite(t, "layering", "muguard", "deterministicgen"), append(pkgs, tc.more...)...)
			failed := false
			for _, d := range diags {
				if !strings.HasPrefix(d.Message, tc.row+": ") {
					continue
				}
				name := filepath.ToSlash(d.Pos.Filename)
				failed = failed || strings.HasSuffix(name, "/"+tc.fail)
				if strings.HasSuffix(name, "/"+tc.pass) {
					t.Errorf("passing fixture %s drew %s", tc.pass, d)
				}
			}
			if !failed {
				t.Errorf("failing fixture %s drew no %s diagnostic", tc.fail, tc.row)
			}
		})
	}
}

// TestDeterministicGen runs layering alongside, whose workers row binds
// the same lin fixture package.
func TestDeterministicGen(t *testing.T) {
	analysistest.Run(t, "testdata", suite(t, "deterministicgen", "layering"), "lin")
}

func TestObsSafety(t *testing.T) {
	// obs: receiver-guard mode; obsuser: nil-check mode via the fixture
	// import "obs".
	analysistest.Run(t, "testdata", suite(t, "obssafety"), "obs", "obsuser")
}

// TestMuGuard runs layering alongside, whose no-clock row binds the
// same serve fixture package.
func TestMuGuard(t *testing.T) {
	analysistest.Run(t, "testdata", suite(t, "muguard", "layering"), "serve")
}

func TestFloatCompare(t *testing.T) {
	analysistest.Run(t, "testdata", suite(t, "floatcompare"), "floats")
}

// TestFloatCompareAllowBindsPerFile proves a file-scope allow
// suppresses exactly the file that carries it: a.go's comparison stays
// silent, b.go's identical comparison in the same package still fires.
func TestFloatCompareAllowBindsPerFile(t *testing.T) {
	diags := analysistest.Run(t, "testdata", suite(t, "floatcompare"), "floatallow")
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic (b.go only), got %d: %v", len(diags), diags)
	}
	if base := diags[0].Pos.Filename; !strings.HasSuffix(base, "b.go") {
		t.Fatalf("diagnostic landed in %s, want b.go", base)
	}
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, "testdata", suite(t, "errwrap"), "errwrap")
}

// TestDirectiveValidation proves malformed directives are findings
// themselves: unknown analyzer names and unknown verbs get flagged
// (want comments in the fixture), while a well-formed line-scope
// ignore suppresses exactly its line and the next.
func TestDirectiveValidation(t *testing.T) {
	analysistest.Run(t, "testdata", suite(t, "floatcompare"), "directives")
}

// TestDirectiveRequiresJustification: an allow with no justification is
// reported AND does not disarm the analyzer — the file's comparison
// still fires. (This case cannot carry a same-line want comment: the
// want text would itself become the justification.)
func TestDirectiveRequiresJustification(t *testing.T) {
	pkgs := analysistest.Load(t, "testdata", "badjust")
	diags, err := analysis.RunPackages(pkgs, suite(t, "floatcompare"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (directive + comparison), got %d: %v", len(diags), diags)
	}
	var sawDirective, sawCompare bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			sawDirective = true
			if !strings.Contains(d.Message, "no justification") {
				t.Errorf("directive diagnostic %q does not mention the missing justification", d.Message)
			}
		case "floatcompare":
			sawCompare = true
		}
	}
	if !sawDirective || !sawCompare {
		t.Fatalf("want one directive and one floatcompare diagnostic, got %v", diags)
	}
}

// TestRegistry pins the suite's shape: every analyzer is named,
// documented, and runnable.
func TestRegistry(t *testing.T) {
	all := analysis.All()
	if len(all) != 6 {
		t.Fatalf("registry has %d analyzers, want 6", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
