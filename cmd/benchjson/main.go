// Command benchjson converts `go test -bench` text output read on
// stdin into a JSON benchmark report on stdout (or -o file). It keeps
// the metrics the scan/router optimization work tracks: ns/op, B/op,
// allocs/op, the simulator's custom cycles/op metric, the serving
// path's sents/s throughput, and the end-to-end parse benchmark's
// eval/scan/router stage attribution.
// Repeated rows of one benchmark (`go test -count N`) are folded into
// one row carrying their medians, the ns/op range and the run count.
// The schema lives in internal/benchjson, shared with the fleet
// benchmark orchestrator (cmd/parsecbench) so BENCH_scan.json and
// BENCH_cluster.json stay one format.
//
// With -base and -head it compares two trees instead: each file holds
// one side's runs of the same benchmarks, as `make bench-ab` runs the
// two sides' test binaries alternately, and the i-th runs of a
// benchmark on the two sides form a pair. It prints a table, with a
// row per benchmark and metric: both sides' medians, the median
// head/base ratio over the pairs with its min and max, and the pairs
// head wins. A benchmark only one side ran follows the table, with that
// side's medians.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 ./internal/maspar/ | benchjson -o BENCH_scan.json
//	benchjson -base base.txt -head head.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/benchjson"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	base := flag.String("base", "", "with -head: the base side's `go test -bench` output to compare")
	head := flag.String("head", "", "with -base: the head side's `go test -bench` output to compare")
	flag.Parse()
	if *base != "" || *head != "" {
		if err := compare(os.Stdout, *base, *head); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := benchjson.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Results = benchjson.Fold(rep.Results)
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// compare prints the A/B table of the runs in the base and head files.
func compare(w io.Writer, basePath, headPath string) error {
	if basePath == "" || headPath == "" {
		return fmt.Errorf("-base and -head go together")
	}
	var sides [2][]benchjson.Result
	for i, path := range []string{basePath, headPath} {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := benchjson.Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sides[i] = rep.Results
	}
	rows := benchjson.CompareAB(sides[0], sides[1])
	if len(rows) == 0 {
		return fmt.Errorf("no benchmark ran on both sides")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\tbase\thead\thead/base\tmin\tmax\thead wins")
	for _, r := range rows {
		name := r.Name
		if pkg := r.Pkg[strings.LastIndexByte(r.Pkg, '/')+1:]; pkg != "" {
			name = pkg + "." + name
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%.3f\t%.3f\t%d/%d\n",
			name, r.Metric, r.Base, r.Head, r.Ratio, r.RatioMin, r.RatioMax, r.Wins, r.Pairs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	oneSided(w, "base", sides[0], sides[1])
	oneSided(w, "head", sides[1], sides[0])
	return nil
}

// oneSided prints, for each benchmark of side that other never ran, its
// median ns/op, B/op and allocs/op over its runs.
func oneSided(w io.Writer, label string, side, other []benchjson.Result) {
	ran := make(map[[2]string]bool)
	for _, r := range other {
		ran[[2]string{r.Pkg, r.Name}] = true
	}
	var only []benchjson.Result
	for _, r := range side {
		if !ran[[2]string{r.Pkg, r.Name}] {
			only = append(only, r)
		}
	}
	for _, r := range benchjson.Fold(only) {
		fmt.Fprintf(w, "only on %s: %s %.4g ns/op %.4g B/op %.4g allocs/op (%d runs)\n",
			label, r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPer, r.Runs)
	}
}
