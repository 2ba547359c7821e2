// Package benchjson defines the machine-readable benchmark report
// schema shared by every benchmark artifact in the repo: `make bench`
// pipes `go test -bench` text through cmd/benchjson into
// BENCH_scan.json, and the fleet orchestrator (cmd/parsecbench /
// internal/benchfleet) writes BENCH_cluster.json directly — both files
// are the same Report document, so trajectory tooling reads one
// schema.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line. Zero-valued metrics the line did not
// report (e.g. cycles/op on a benchmark without ReportMetric) are
// omitted from the JSON. Pkg is the package the line was run in (the
// `pkg:` header above it).
type Result struct {
	Name       string  `json:"name"`
	Pkg        string  `json:"pkg,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	AllocsPer  float64 `json:"allocs_per_op"`
	CyclesPer  float64 `json:"cycles_per_op,omitempty"`
	SentsPer   float64 `json:"sents_per_sec,omitempty"`
	EvalNsPer  float64 `json:"eval_ns_per_op,omitempty"`
	ScanNsPer  float64 `json:"scan_ns_per_op,omitempty"`
	RouterNs   float64 `json:"router_ns_per_op,omitempty"`
	P99Ns      float64 `json:"p99_ns_per_op,omitempty"`

	// Fleet-run metrics (BENCH_cluster.json): client-observed median,
	// fleet/shard result-cache hit rate for the measured span, and the
	// router's failover and shed counts over the same span.
	P50Ns     float64 `json:"p50_ns_per_op,omitempty"`
	HitRate   float64 `json:"hit_rate,omitempty"`
	Failovers float64 `json:"failovers,omitempty"`
	Sheds     float64 `json:"sheds,omitempty"`

	// Spread of a folded row (see Fold): the number of runs behind it,
	// and the lowest and highest ns/op among them.
	Runs    int     `json:"runs,omitempty"`
	NsMinOp float64 `json:"ns_per_op_min,omitempty"`
	NsMaxOp float64 `json:"ns_per_op_max,omitempty"`
}

// metricFields lists every float metric of a Result by its JSON name.
var metricFields = []struct {
	name string
	of   func(*Result) *float64
}{
	{"ns_per_op", func(r *Result) *float64 { return &r.NsPerOp }},
	{"bytes_per_op", func(r *Result) *float64 { return &r.BytesPerOp }},
	{"allocs_per_op", func(r *Result) *float64 { return &r.AllocsPer }},
	{"cycles_per_op", func(r *Result) *float64 { return &r.CyclesPer }},
	{"sents_per_sec", func(r *Result) *float64 { return &r.SentsPer }},
	{"eval_ns_per_op", func(r *Result) *float64 { return &r.EvalNsPer }},
	{"scan_ns_per_op", func(r *Result) *float64 { return &r.ScanNsPer }},
	{"router_ns_per_op", func(r *Result) *float64 { return &r.RouterNs }},
	{"p99_ns_per_op", func(r *Result) *float64 { return &r.P99Ns }},
	{"p50_ns_per_op", func(r *Result) *float64 { return &r.P50Ns }},
	{"hit_rate", func(r *Result) *float64 { return &r.HitRate }},
	{"failovers", func(r *Result) *float64 { return &r.Failovers }},
	{"sheds", func(r *Result) *float64 { return &r.Sheds }},
	{"ns_per_op_min", func(r *Result) *float64 { return &r.NsMinOp }},
	{"ns_per_op_max", func(r *Result) *float64 { return &r.NsMaxOp }},
}

// Report is the top-level JSON document. Pkg is the last package
// header read; in a multi-package run each Result.Pkg names its own.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Results []Result `json:"results"`
}

// Parse decodes `go test -bench` text output into a Report.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			// A multi-package run prints one header per package; the
			// result lines below it belong to it.
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		res, ok := ParseLine(line)
		if ok {
			res.Pkg = rep.Pkg
			rep.Results = append(rep.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return rep, nil
}

// ParseLine decodes one result line: name, iteration count, then
// (value, unit) pairs.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: trimProcSuffix(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPer = v
		case "cycles/op":
			res.CyclesPer = v
		case "sents/s":
			res.SentsPer = v
		case "eval-ns/op":
			res.EvalNsPer = v
		case "scan-ns/op":
			res.ScanNsPer = v
		case "router-ns/op":
			res.RouterNs = v
		}
	}
	return res, true
}

// Fold merges the repeated rows that `go test -count N` prints for one
// benchmark, keyed by (pkg, name), into one row each, in first-seen
// order. Every metric and the iteration count become the median over
// the runs; Runs counts them, and NsMinOp/NsMaxOp keep the ns/op range.
// A benchmark run once folds to itself with Runs 1.
func Fold(results []Result) []Result {
	type key struct{ pkg, name string }
	var order []key
	runs := make(map[key][]Result)
	for _, r := range results {
		k := key{r.Pkg, r.Name}
		if runs[k] == nil {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		row := rs[0]
		vals := make([]float64, len(rs))
		for _, m := range metricFields {
			for i := range rs {
				vals[i] = *m.of(&rs[i])
			}
			*m.of(&row) = median(vals)
		}
		for i := range rs {
			vals[i] = float64(rs[i].Iterations)
		}
		row.Iterations = int64(median(vals))
		row.Runs = len(rs)
		row.NsMinOp, row.NsMaxOp = rs[0].NsPerOp, rs[0].NsPerOp
		for _, r := range rs[1:] {
			row.NsMinOp = min(row.NsMinOp, r.NsPerOp)
			row.NsMaxOp = max(row.NsMaxOp, r.NsPerOp)
		}
		out = append(out, row)
	}
	return out
}

// median returns the median of vals (the mean of the middle two for an
// even count), sorting vals in place.
func median(vals []float64) float64 {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// trimProcSuffix drops the -GOMAXPROCS suffix go test appends
// (BenchmarkFoo/v=1024-8 → BenchmarkFoo/v=1024) so reports diff
// cleanly across machines.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Validate checks a Report against the schema invariants every
// consumer of BENCH_scan.json / BENCH_cluster.json relies on:
// at least one result, every result named, names unique, iteration
// counts non-negative, and no negative metric values (counters and
// latencies are non-negative by construction; a negative value means
// a producer bug, usually a bad counter delta).
func Validate(rep *Report) error {
	if rep == nil {
		return fmt.Errorf("benchjson: nil report")
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("benchjson: report has no results")
	}
	seen := make(map[string]bool, len(rep.Results))
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Name == "" {
			return fmt.Errorf("benchjson: result %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("benchjson: duplicate result name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Iterations < 0 {
			return fmt.Errorf("benchjson: result %q: negative iterations %d", r.Name, r.Iterations)
		}
		for _, m := range metricFields {
			if v := *m.of(r); v < 0 {
				return fmt.Errorf("benchjson: result %q: negative %s %g", r.Name, m.name, v)
			}
		}
		if r.HitRate > 1 {
			return fmt.Errorf("benchjson: result %q: hit_rate %g > 1", r.Name, r.HitRate)
		}
	}
	return nil
}

// ValidateBytes decodes raw JSON as a Report and validates it.
func ValidateBytes(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchjson: decode report: %w", err)
	}
	if err := Validate(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
