// Command cacqrlint runs cacqr's custom static-analysis suite
// (internal/analysis) over package patterns and exits non-zero on any
// diagnostic. The root package's TestLint runs the same suite over
// ./..., so go test ./... already fails on a finding; the command is
// for listing the analyzers and for linting from the command line:
//
//	go run ./cmd/cacqrlint ./...
//
// The suite enforces the repo's load-bearing conventions — the
// layering table (one communicator, one price, one ladder, one wire
// boundary, workspace-only rank bodies, no pool, the Workers knob, no
// clock in serve),
// bitwise-deterministic generators, nil-safe obs spans, mutex-guarded
// serve state, tolerance-based float comparison, and %w error
// wrapping. `cacqrlint -list` describes each analyzer; a file
// opts out of one with
//
//	//lint:allow <analyzer> <justification>
//
// and a single line with
//
//	//lint:ignore <analyzer> <justification>
//
// Unknown analyzer names and missing justifications in directives are
// themselves diagnostics.
//
// The tool is built on the standard library's go/ast + go/types (the
// module takes no dependencies), so it shells out to `go list` for
// package enumeration and must run from inside the module.
package main

import (
	"flag"
	"fmt"
	"os"

	"cacqr/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cacqrlint [-list] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cacqrlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cacqrlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
