package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchjson"
)

// The parser itself is tested in internal/benchjson; this pins the
// command's dependency on it (a build break here means the extraction
// regressed).
func TestCommandUsesSharedParser(t *testing.T) {
	rep, err := benchjson.Parse(strings.NewReader(
		"BenchmarkX-8 10 5.0 ns/op 1 B/op 1 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "BenchmarkX" {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// The -base/-head mode prints one row per benchmark and metric with
// both medians, the ratio range and the win count.
func TestCompareTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.txt", "pkg: repro/internal/core\nBenchmarkX-1 10 100 ns/op\nBenchmarkX-1 10 120 ns/op\n")
	head := write("head.txt", "pkg: repro/internal/core\nBenchmarkX-1 10 90 ns/op\nBenchmarkX-1 10 60 ns/op\n")
	var out strings.Builder
	if err := compare(&out, base, head); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want a header and one row:\n%s", len(lines), out.String())
	}
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "core.BenchmarkX ns_per_op 110 75 0.700 0.500 0.900 2/2" {
		t.Errorf("row %q", lines[1])
	}
	if err := compare(&out, base, ""); err == nil {
		t.Error("-base without -head: no error")
	}
	out.Reset()
	base = write("base2.txt", "pkg: repro/internal/core\nBenchmarkX-1 10 100 ns/op\nBenchmarkY-1 10 50 ns/op 8 B/op 2 allocs/op\n")
	if err := compare(&out, base, head); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "only on base: BenchmarkY 50 ns/op 8 B/op 2 allocs/op (1 runs)\n") {
		t.Errorf("a benchmark only base ran is not reported on its side:\n%s", out.String())
	}
}
