package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// measuredRow matches the data rows of the accuracy experiment: rounding
// errors of real factorizations, which differ between the assembly and
// the portable kernel. Everything else §VI prints is a cost-model value
// or an exact counter of the simulated runtime and is pinned to the byte.
var measuredRow = regexp.MustCompile(`(?m)^ +1e\+\d\d .*\n`)

// TestPaperFigsMatchGolden regenerates every experiment as
// `paperfigs -csv` prints it and compares with the recorded output: the
// planner, the cost model and the figure protocol may be reorganised, but
// not one digit of the paper's evaluation may move without the golden
// file saying so. Refresh it with
//
//	go run ./cmd/paperfigs -csv > internal/bench/testdata/paperfigs.csv.golden
func TestPaperFigsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/bench/testdata/paperfigs.csv.golden")
	if err != nil {
		t.Fatal(err)
	}
	csvOut = true
	defer func() { csvOut = false }()
	var got strings.Builder
	for _, e := range experiments() {
		out, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		got.WriteString(out + "\n")
	}
	gotLines := strings.Split(measuredRow.ReplaceAllString(got.String(), ""), "\n")
	wantLines := strings.Split(measuredRow.ReplaceAllString(string(want), ""), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from the golden file:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden file has %d", len(gotLines), len(wantLines))
	}
}
