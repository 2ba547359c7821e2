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
BenchmarkHedgedFleet-8               	       4	 312345678 ns/op	        95.2 sents/s	  21000000 p99-ns/op	   8000000 p50-ns/op	0 B/op	0 allocs/op
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
	if len(rep.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(rep.Results))
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
	if h := rep.Results[4]; h.P99Ns != 21000000 || h.P50Ns != 8000000 {
		t.Errorf("latency quantile metrics mishandled: %+v", h)
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
	rep, err := ValidateBytes([]byte(`{"results":[{"name":"x","iterations":3,"ns_per_op":1}],"samples":{"windows":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) == 0 {
		t.Error("samples payload dropped")
	}
	if _, err := ValidateBytes([]byte(`{"results":[]}`)); err == nil {
		t.Fatal("empty results accepted")
	}
	if _, err := ValidateBytes([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
