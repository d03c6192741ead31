package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
)

// layering: the rules that keep the code shaped like the paper, as one
// table. A row names what is forbidden and the package paths and files
// where it is allowed; one walk over every non-test file reports each
// forbidden thing as "<row>: <thing>: <why>". A ban is one of
//
//	cacqr/internal/lin.SlabFrom       a use of that package-level name
//	cacqr/internal/lin.Matrix.Clone   a use of that method
//	cacqr/internal/perf               a package at that path, or a use of its import
//	method Bcast                      declaring a method of that name
//	go                                a go statement
//	json []float64                    an exported []float64 struct field
//	                                  whose json tag is not "-"
//
// Names resolve through the type checker, so aliases, shadowing and
// comments do not fool the table. A place is a package path, or a file
// when it ends in .go; fixture packages stand in for module packages by
// their final path segment, as they do for pathIn.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "the architecture table: one communicator, one price, one ladder, one pass loop, one wire boundary, workspace-only rank bodies, no pool, the Workers knob, no clock in serve",
	Run:  runLayering,
}

// row is one rule of the table. It binds the files in `in` (every file
// when empty) that are not in allow.
type row struct {
	name, why       string
	bans, in, allow []string
}

const (
	cm  = "cacqr/internal/costmodel."
	lin = "cacqr/internal/lin."
)

var rows = []row{
	{name: "perf-rig", why: "the retired perf rig stays retired; go run ./benchmark measures speed",
		bans: []string{"cacqr/cmd/bench", "cacqr/internal/perf"}},
	{name: "one-communicator", why: "a collective, Split, Subgroup or SendRecv is defined once, in internal/transport, whose counters carry the α-β prices",
		bans:  []string{"method Bcast", "method Reduce", "method Allreduce", "method Gather", "method Allgather", "method Barrier", "method Transpose", "method Split", "method Subgroup", "method SendRecv"},
		allow: []string{"cacqr/internal/transport"}},
	{name: "one-price", why: "a whole algorithm is priced by plan.Price, the per-line tables and the Model* re-exports only",
		bans: []string{cm + "CACQR2", cm + "PanelCACQR2", cm + "OneDCQR2", cm + "OneDCQR2Memory", cm + "OneDShiftedCQR3", cm + "OneDShiftedCQR3Memory",
			cm + "TSQR", cm + "TSQRMemory", cm + "BlockedTSQR", cm + "BlockedTSQRMemory", cm + "PGEQRF", cm + "PGEQRFMemory", cm + "StreamCQR2", cm + "StreamCQR2Memory"},
		allow: []string{"cacqr/internal/plan", "cacqr/internal/costmodel", "cacqr/internal/bench/tables.go", "cacqr/cacqr.go", "cacqr/benchmark"}},
	{name: "one-price-memory", why: "besides the pricing places, only the grid rank body names its memory row, which sizes its workspace",
		bans:  []string{cm + "CACQR2Memory", cm + "PanelCACQR2Memory"},
		allow: []string{"cacqr/internal/plan", "cacqr/internal/costmodel", "cacqr/internal/bench/tables.go", "cacqr/cacqr.go", "cacqr/benchmark", "cacqr/internal/core/cacqr.go", "cacqr/internal/core/panel.go"}},
	{name: "one-ladder", why: "a batched item is CholeskyQR2 on one pool worker; strided slabs and pass-major batch kernels stay in internal/lin for the benchmark",
		bans:  []string{lin + "Slab", lin + "NewSlab", lin + "SlabFrom", lin + "BatchSYRK", lin + "BatchGEMM", lin + "BatchTRSM"},
		allow: []string{"cacqr/internal/lin", "cacqr/benchmark"}},
	{name: "one-pass-loop", why: "the n×n factor step runs inside core.Ladder's adapters only (ladder.go's Replicated, cacqr.go's cube), which type a breakdown as ErrIllConditioned in one place; kernels, their per-line tables and the benchmark call it bare",
		bans:  []string{lin + "CholInv", lin + "CholInvInto", "cacqr/internal/cfr3d.Factor"},
		allow: []string{"cacqr/internal/lin", "cacqr/internal/cfr3d", "cacqr/internal/core/ladder.go", "cacqr/internal/core/cacqr.go", "cacqr/internal/bench/tables.go", "cacqr/benchmark"}},
	{name: "one-wire", why: "a matrix becomes a payload, and a payload a matrix, only in internal/dist",
		bans:  []string{"cacqr/internal/dist.Flatten", "cacqr/internal/dist.Unflatten", lin + "FromSlice"},
		allow: []string{"cacqr/internal/dist", "cacqr/internal/lin", "cacqr/benchmark"}},
	{name: "per-call", why: "the rank body takes temporaries from the job's workspace and messages from the run's free list; transport's fresh is the one nil-destination fallback",
		bans: []string{lin + "NewMatrix", lin + "Matrix.Clone", "slices.Clone"},
		in: []string{"cacqr/internal/mm3d", "cacqr/internal/cfr3d", "cacqr/internal/core/cacqr.go", "cacqr/internal/core/panel.go",
			"cacqr/internal/transport/comm.go", "cacqr/internal/simmpi/link.go"}},
	{name: "no-pool", why: "a job's storage is the job's and dies with it: no sync.Pool, no GC knob",
		bans:  []string{"sync.Pool", "runtime/debug.SetGCPercent"},
		allow: []string{"cacqr/benchmark"}},
	{name: "json-wire", why: "data, b, x, q and r cross the wire through wire.go's scanner and printer, not encoding/json's reflection",
		bans: []string{"json []float64"},
		in:   []string{"cacqr/cmd/cacqrd"}},
	{name: "workers", why: "kernel parallelism comes from the Workers knob through internal/lin's worker pool",
		bans:  []string{"runtime.NumCPU", "go"},
		in:    []string{"cacqr/internal/lin", "cacqr/internal/core", "cacqr/internal/tsqr"},
		allow: []string{"cacqr/internal/lin/parallel.go"}},
	{name: "no-clock", why: "serve holds no request on a clock: admission refuses and never waits, so a request waits only on its context, the rank gate or a shared plan lookup",
		bans: []string{"time.Sleep", "time.After", "time.AfterFunc", "time.NewTimer", "time.NewTicker", "time.Tick"},
		in:   []string{"cacqr/internal/serve"}},
}

func runLayering(pass *Pass) error {
	for _, f := range pass.Files {
		file := filepath.Base(pass.Fset.Position(f.Package).Filename)
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		var bound []row
		for _, r := range rows {
			if (len(r.in) == 0 || at(pass.Pkg.Path(), file, r.in)) && !at(pass.Pkg.Path(), file, r.allow) {
				bound = append(bound, r)
			}
		}
		report := func(pos token.Pos, thing string) {
			for _, r := range bound {
				for _, b := range r.bans {
					// A fixture's thing is the module's with the path
					// before its final segment cut off.
					if cut := len(b) - len(thing); strings.HasSuffix(b, thing) && (cut == 0 || b[cut-1] == '/') {
						pass.Reportf(pos, "%s: %s: %s", r.name, b, r.why)
					}
				}
			}
		}
		report(f.Name.Pos(), pass.Pkg.Path())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "go")
			case *ast.FuncDecl:
				if n.Recv != nil {
					report(n.Name.Pos(), "method "+n.Name.Name)
				}
			case *ast.Ident:
				if thing := named(pass.TypesInfo.Uses[n]); thing != "" {
					report(n.Pos(), thing)
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if reflectedFloats(pass.TypesInfo, fld) {
						report(fld.Pos(), "json []float64")
					}
				}
			}
			return true
		})
	}
	return nil
}

// at reports whether file, in the package at pkgPath, is one of places.
func at(pkgPath, file string, places []string) bool {
	for _, p := range places {
		if strings.HasSuffix(p, ".go") {
			if file == path.Base(p) && pathIn(pkgPath, path.Dir(p)) {
				return true
			}
		} else if pathIn(pkgPath, p) {
			return true
		}
	}
	return false
}

// unparen turns a method's full name, "(*<path>.<Type>).<Method>", into
// the table's "<path>.<Type>.<Method>".
var unparen = strings.NewReplacer("(*", "", "(", "", ")", "")

// named is what a used identifier names in the table's terms: an
// imported package's path, "<path>.<Name>" for a package-level object,
// "<path>.<Type>.<Method>" for a method, "" for anything local.
func named(obj types.Object) string {
	switch obj := obj.(type) {
	case nil:
		return ""
	case *types.PkgName:
		return obj.Imported().Path()
	case *types.Func:
		return unparen.Replace(obj.FullName())
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// reflectedFloats reports whether fld is an exported []float64 struct
// field that encoding/json would reflect over: its json tag is not "-".
func reflectedFloats(info *types.Info, fld *ast.Field) bool {
	if !types.Identical(info.TypeOf(fld.Type).Underlying(), types.NewSlice(types.Typ[types.Float64])) {
		return false
	}
	exported := false
	for _, name := range fld.Names {
		exported = exported || name.IsExported()
	}
	tag := ""
	if fld.Tag != nil {
		tag, _ = strconv.Unquote(fld.Tag.Value)
	}
	return exported && reflect.StructTag(tag).Get("json") != "-"
}
