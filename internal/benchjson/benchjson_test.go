package benchjson

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/maspar
cpu: whatever
BenchmarkSegScanOr/v=16384-8         	 2751582	       433.5 ns/op	     17153 cycles/op	       0 B/op	       0 allocs/op
BenchmarkRouterFetch/v=65536-8       	  106156	     11245 ns/op	    393223 cycles/op	       0 B/op	       0 allocs/op
BenchmarkAll-8                       	    9086	    131509 ns/op	         1.000 cycles/op	       0 B/op	       0 allocs/op
BenchmarkGangThroughput/batch=32-8   	       8	 290593770 ns/op	       110.1 sents/s	19645530 B/op	   48995 allocs/op
PASS
ok  	repro/internal/maspar	9.499s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro/internal/maspar" {
		t.Errorf("header mismatch: %+v", rep)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkSegScanOr/v=16384" {
		t.Errorf("GOMAXPROCS suffix not trimmed: %q", r.Name)
	}
	if r.Iterations != 2751582 || r.NsPerOp != 433.5 || r.CyclesPer != 17153 || r.AllocsPer != 0 {
		t.Errorf("metrics mismatch: %+v", r)
	}
	if rep.Results[2].Name != "BenchmarkAll" {
		t.Errorf("plain name mishandled: %q", rep.Results[2].Name)
	}
	if g := rep.Results[3]; g.SentsPer != 110.1 || g.CyclesPer != 0 {
		t.Errorf("sents/s metric mishandled: %+v", g)
	}
}

// A multi-package run (`go test -bench . ./a ./b`) prints a pkg header
// per package; each row keeps the package it ran in.
func TestParseMultiPackage(t *testing.T) {
	rep, err := Parse(strings.NewReader(`goos: linux
goarch: amd64
pkg: repro
BenchmarkFig8_MasParCDG/n=5-2   1   1706187 ns/op   118400 cycles/op
PASS
ok  	repro	0.412s
goos: linux
goarch: amd64
pkg: repro/internal/core
BenchmarkEndToEndParse/batch=1-2   1   20404258 ns/op   12649532 eval-ns/op   49.01 sents/s
PASS
ok  	repro/internal/core	0.9s
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	for i, want := range []string{"repro", "repro/internal/core"} {
		if got := rep.Results[i].Pkg; got != want {
			t.Errorf("result %d (%s): pkg %q, want %q", i, rep.Results[i].Name, got, want)
		}
	}
}

// `go test -count 3` prints each benchmark three times; Fold keeps one
// row per (pkg, name), in first-seen order, with each metric's median,
// the ns/op range and the run count. The same name in another package
// is another benchmark.
func TestFoldRepeatedRows(t *testing.T) {
	rep, err := Parse(strings.NewReader(`pkg: repro/internal/core
BenchmarkEndToEndParse/batch=1-2   90   13000000 ns/op   9000000 eval-ns/op   76.9 sents/s   600 B/op   10 allocs/op
BenchmarkEndToEndParse/batch=8-2   60   17000000 ns/op   470.5 sents/s   900 B/op   20 allocs/op
BenchmarkEndToEndParse/batch=1-2   80   12000000 ns/op   8000000 eval-ns/op   83.3 sents/s   600 B/op   10 allocs/op
BenchmarkEndToEndParse/batch=8-2   70   18000000 ns/op   444.4 sents/s   900 B/op   20 allocs/op
BenchmarkEndToEndParse/batch=1-2   100  14000000 ns/op   9500000 eval-ns/op   71.4 sents/s   640 B/op   12 allocs/op
pkg: repro
BenchmarkEndToEndParse/batch=1-2   5    1000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	got := Fold(rep.Results)
	want := []Result{
		{Name: "BenchmarkEndToEndParse/batch=1", Pkg: "repro/internal/core", Iterations: 90,
			NsPerOp: 13000000, EvalNsPer: 9000000, SentsPer: 76.9, BytesPerOp: 600, AllocsPer: 10,
			Runs: 3, NsMinOp: 12000000, NsMaxOp: 14000000},
		{Name: "BenchmarkEndToEndParse/batch=8", Pkg: "repro/internal/core", Iterations: 65,
			NsPerOp: 17500000, SentsPer: 457.45, BytesPerOp: 900, AllocsPer: 20,
			Runs: 2, NsMinOp: 17000000, NsMaxOp: 18000000},
		{Name: "BenchmarkEndToEndParse/batch=1", Pkg: "repro", Iterations: 5,
			NsPerOp: 1000, Runs: 1, NsMinOp: 1000, NsMaxOp: 1000},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}

func TestValidate(t *testing.T) {
	good := &Report{Results: []Result{
		{Name: "Fleet/smoke/total", Iterations: 100, NsPerOp: 12, HitRate: 0.5},
		{Name: "Fleet/smoke/phase=kill", Iterations: 40, P99Ns: 9e6},
	}}
	if err := Validate(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name string
		rep  *Report
		want string
	}{
		{"nil", nil, "nil report"},
		{"empty", &Report{}, "no results"},
		{"unnamed", &Report{Results: []Result{{Iterations: 1}}}, "no name"},
		{"dup", &Report{Results: []Result{{Name: "a"}, {Name: "a"}}}, "duplicate"},
		{"negIters", &Report{Results: []Result{{Name: "a", Iterations: -1}}}, "negative iterations"},
		{"negMetric", &Report{Results: []Result{{Name: "a", P99Ns: -5}}}, "negative p99_ns_per_op"},
		{"hitRateOver1", &Report{Results: []Result{{Name: "a", HitRate: 1.5}}}, "hit_rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.rep)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestValidateBytes(t *testing.T) {
	rep, err := ValidateBytes([]byte(`{"results":[{"name":"x","iterations":3,"ns_per_op":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Iterations != 3 {
		t.Errorf("decoded %+v", rep.Results)
	}
	if _, err := ValidateBytes([]byte(`{"results":[]}`)); err == nil {
		t.Fatal("empty results accepted")
	}
	if _, err := ValidateBytes([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
