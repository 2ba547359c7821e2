// Command parsecbench runs fleet benchmark scenarios. `parsecbench run`
// boots an N-shard parsecd fleet behind a parsecrouter — in-process
// (deterministic, no child processes) or as real local processes
// (-mode proc, the kill -9 mode `make bench-cluster` uses) — drives the
// scenario's phased load mix with its fault schedule, and writes
// BENCH_cluster.json in the shared benchjson schema: a total row, one
// row per phase and one per (phase, shard).
//
// Usage:
//
//	parsecbench run -scenario scenarios/smoke.json -o BENCH_cluster.json
//	parsecbench run -scenario scenarios/zipf-kill.json -mode proc -bin .benchbin
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/benchfleet"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parsecbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 || args[0] != "run" {
		return fmt.Errorf("usage: parsecbench run -scenario FILE [flags]")
	}
	_, err := runScenario(args[1:], out)
	return err
}

// runScenario runs one scenario, writes its report and returns the run
// record.
func runScenario(args []string, out io.Writer) (*benchfleet.RunResult, error) {
	fs := flag.NewFlagSet("parsecbench run", flag.ContinueOnError)
	var (
		scenPath = fs.String("scenario", "", "scenario JSON file (required)")
		mode     = fs.String("mode", "inproc", "fleet mode: inproc (httptest harness, deterministic) or proc (real local processes)")
		binDir   = fs.String("bin", ".benchbin", "directory with the parsecd and parsecrouter binaries (-mode proc)")
		logDir   = fs.String("logdir", "", "directory for per-process logs (-mode proc; empty discards)")
		outPath  = fs.String("o", "BENCH_cluster.json", "output report path (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *scenPath == "" {
		return nil, fmt.Errorf("-scenario is required")
	}
	data, err := os.ReadFile(*scenPath)
	if err != nil {
		return nil, err
	}
	sc, err := benchfleet.DecodeScenario(data)
	if err != nil {
		return nil, err
	}

	var fleet benchfleet.Fleet
	switch *mode {
	case "inproc":
		fleet, err = benchfleet.NewHarnessFleet(sc, server.Config{}, router.Config{})
	case "proc":
		fleet, err = benchfleet.NewProcFleet(sc, benchfleet.ProcConfig{BinDir: *binDir, LogDir: *logDir})
	default:
		return nil, fmt.Errorf("unknown -mode %q (want inproc or proc)", *mode)
	}
	if err != nil {
		return nil, err
	}
	defer fleet.Close() //nolint:errcheck

	started := time.Now()
	res, err := benchfleet.Run(context.Background(), fleet, sc)
	if err != nil {
		return nil, err
	}
	rep, err := benchfleet.BuildReport(res)
	if err != nil {
		return nil, err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	enc = append(enc, '\n')
	if *outPath == "-" {
		_, err = out.Write(enc)
		return res, err
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		return nil, err
	}
	for _, pr := range res.Phases {
		p50, _ := res.Quantile(pr.Name, "", 0.50)
		p99, _ := res.Quantile(pr.Name, "", 0.99)
		fmt.Fprintf(out, "phase %-12s requests=%d lost=%d p50=%.3fms p99=%.3fms %.0f req/s\n",
			pr.Name, len(pr.Requests), pr.Lost(), float64(p50)/1e6, float64(p99)/1e6,
			float64(len(pr.Requests))/(float64(pr.ElapsedNs)/1e9))
	}
	fmt.Fprintf(out, "wrote %s (%d results, %s elapsed)\n", *outPath, len(rep.Results), time.Since(started).Round(time.Millisecond))
	return res, nil
}
