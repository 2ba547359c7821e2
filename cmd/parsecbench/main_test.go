package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfleet"
	"repro/internal/benchjson"
)

// TestRunInprocWritesValidReport drives the CLI end to end in the
// in-process mode: run the checked-in smoke scenario (2 shards, a kill
// phase, a revive), then read the artifact it wrote.
func TestRunInprocWritesValidReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_cluster.json")
	var buf bytes.Buffer
	err := run([]string{"run", "-scenario", "../../scenarios/smoke.json", "-mode", "inproc", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := readReport(t, out)
	// The survivor's kill-phase row carries its latency tail.
	if row, ok := rows["Fleet/smoke/phase=kill/shard=shard0"]; !ok || row.P99Ns <= 0 {
		t.Fatalf("survivor kill-phase row = %+v,%v want p99 > 0", row, ok)
	}
}

// readReport reads and validates a written artifact and returns its
// rows by name.
func readReport(t *testing.T, path string) map[string]benchjson.Result {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := benchjson.ValidateBytes(data)
	if err != nil {
		t.Fatalf("artifact does not validate: %v", err)
	}
	rows := map[string]benchjson.Result{}
	for _, r := range rep.Results {
		rows[r.Name] = r
	}
	return rows
}

func TestRunUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"query", "-in", "BENCH_cluster.json"},
		{"run"},
		{"run", "-scenario", "no-such-file.json"},
		{"run", "-scenario", "../../scenarios/smoke.json", "-mode", "cloud"},
		{"run", "-scenario", "../../scenarios/smoke.json", "-scrape-every", "100ms"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestProcFleetSmoke is the real-process smoke: a 2-shard fleet plus
// router as actual child processes, a kill -9 mid-scenario, and a
// schema-valid BENCH_cluster.json whose rows are complete at the end. Gated behind
// PARSECBENCH_PROC=1 because it needs prebuilt binaries
// (PARSECBENCH_BIN, default .benchbin at the repo root) — `make
// bench-cluster-smoke` builds them and runs this.
func TestProcFleetSmoke(t *testing.T) {
	if os.Getenv("PARSECBENCH_PROC") != "1" {
		t.Skip("real-process smoke runs only under make bench-cluster-smoke (PARSECBENCH_PROC=1)")
	}
	bin := os.Getenv("PARSECBENCH_BIN")
	if bin == "" {
		bin = "../../.benchbin"
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		t.Fatal(err)
	}
	out := os.Getenv("PARSECBENCH_OUT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "BENCH_cluster.json")
	}

	var buf bytes.Buffer
	res, err := runScenario([]string{
		"-scenario", "../../scenarios/smoke.json",
		"-mode", "proc",
		"-bin", abs,
		"-logdir", t.TempDir(),
		"-o", out,
	}, &buf)
	if err != nil {
		t.Fatalf("proc run: %v\n%s", err, buf.String())
	}
	t.Logf("proc run output:\n%s", buf.String())

	rows := readReport(t, out)
	total, ok := rows["Fleet/smoke/total"]
	if !ok || total.Iterations != 140 || total.P50Ns <= 0 || total.P99Ns <= 0 {
		t.Fatalf("total row = %+v,%v want 140 iterations and p50, p99 > 0", total, ok)
	}
	// The surviving shard's kill-phase row has a latency tail...
	if row := rows["Fleet/smoke/phase=kill/shard=shard0"]; row.P99Ns <= 0 {
		t.Fatalf("shard0 kill-phase row = %+v want p99 > 0", row)
	}
	// ...and the zipf warm phase produced result-cache hits.
	if row := rows["Fleet/smoke/phase=warm/shard=shard0"]; row.HitRate <= 0 {
		t.Fatalf("shard0 warm row = %+v want hit rate > 0", row)
	}
	// Every reply named its shard: in each phase the per-shard rows
	// add up to the phase's requests.
	for _, pr := range res.Phases {
		prefix := "Fleet/smoke/phase=" + pr.Name
		var shards int64
		for name, row := range rows {
			if strings.HasPrefix(name, prefix+"/shard=") {
				shards += row.Iterations
			}
		}
		if phase := rows[prefix].Iterations; phase != int64(len(pr.Requests)) || shards != phase {
			t.Errorf("phase %s: row iterations %d, shard rows sum %d, want %d each", pr.Name, phase, shards, len(pr.Requests))
		}
	}
	// The kill was real: the router ejected shard1 during the kill
	// phase, read from the run record's closing scrapes.
	if d, ok := res.Delta("parsecrouter_shard_ejections_total", benchfleet.RouterSource, "kill"); !ok || d < 1 {
		t.Fatalf("ejections during kill = %g,%v want >= 1", d, ok)
	}
}
