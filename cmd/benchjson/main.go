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
// Usage:
//
//	go test -bench . -benchmem -count 5 ./internal/maspar/ | benchjson -o BENCH_scan.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchjson"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
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
