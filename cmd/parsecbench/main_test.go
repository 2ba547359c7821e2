package main

import (
	"bytes"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

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
	abs := procBin(t)
	out := os.Getenv("PARSECBENCH_OUT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "BENCH_cluster.json")
	}

	logDir := t.TempDir()
	var buf bytes.Buffer
	res, err := runScenario([]string{
		"-scenario", "../../scenarios/smoke.json",
		"-mode", "proc",
		"-bin", abs,
		"-logdir", logDir,
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
	// The closed fleet leaves no descriptor into its log dir: not the
	// router's log, nor the log of shard1, which the scenario killed
	// and revived. Open descriptors are read from /proc/self/fd, so the
	// check runs on Linux only.
	if runtime.GOOS == "linux" {
		if fds := openFilesUnder(t, logDir); len(fds) != 0 {
			t.Errorf("%d descriptors still open into the log dir: %v", len(fds), fds)
		}
	}
}

// openFilesUnder lists this process's open descriptors whose target
// lies under dir, as "fd -> path".
func openFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil {
			continue // closed since the listing, like ReadDir's own descriptor
		}
		if strings.HasPrefix(target, dir+string(filepath.Separator)) {
			out = append(out, e.Name()+" -> "+target)
		}
	}
	return out
}

// procBin skips the test unless PARSECBENCH_PROC=1 and returns the
// absolute directory of the prebuilt binaries (PARSECBENCH_BIN, default
// .benchbin at the repo root).
func procBin(t *testing.T) string {
	t.Helper()
	if os.Getenv("PARSECBENCH_PROC") != "1" {
		t.Skip("real-process tests run only under make bench-cluster-smoke (PARSECBENCH_PROC=1)")
	}
	bin := os.Getenv("PARSECBENCH_BIN")
	if bin == "" {
		bin = "../../.benchbin"
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestProcRunReapsFleet runs the built parsecbench on the smoke scenario
// in -mode proc and makes it die early twice: once with its standard
// output closed, so its closing summary hits a broken pipe, and once
// with a SIGINT after the router has booted. Either way no child may
// outlive it: every shard and router address its -logdir logs name
// must have stopped answering /healthz once it has exited. Each run is
// its own process group, which the test kills at the end so that a
// failing run leaves nothing behind.
func TestProcRunReapsFleet(t *testing.T) {
	bin := procBin(t)
	for _, tc := range []struct {
		name string
		// stdout returns the command's standard output; boot, when
		// non-nil, runs once the router log reports it is routing.
		stdout func(t *testing.T) *os.File
		boot   func(cmd *exec.Cmd) error
	}{
		{"closed-stdout", func(t *testing.T) *os.File {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			t.Cleanup(func() { w.Close() })
			return w
		}, nil},
		{"sigint", func(*testing.T) *os.File { return nil },
			func(cmd *exec.Cmd) error { return cmd.Process.Signal(os.Interrupt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logDir := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, "parsecbench"), "run",
				"-scenario", "../../scenarios/smoke.json", "-mode", "proc", "-bin", bin,
				"-logdir", logDir, "-o", filepath.Join(t.TempDir(), "BENCH_cluster.json"))
			cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
			if out := tc.stdout(t); out != nil {
				cmd.Stdout = out
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }) //nolint:errcheck
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()

			if tc.boot != nil {
				deadline := time.Now().Add(30 * time.Second)
				for len(childAddrs(t, logDir, "routing on")) == 0 {
					if time.Now().After(deadline) {
						t.Fatal("the router did not log \"routing on\" within 30s")
					}
					time.Sleep(20 * time.Millisecond)
				}
				if err := tc.boot(cmd); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-exited:
				t.Logf("parsecbench exited: %v", err)
			case <-time.After(60 * time.Second):
				t.Fatal("parsecbench did not exit within 60s")
			}

			addrs := append(childAddrs(t, logDir, "listening on"), childAddrs(t, logDir, "routing on")...)
			if len(addrs) < 3 {
				t.Fatalf("logs name %v, want 2 shards and the router", addrs)
			}
			client := &http.Client{Timeout: time.Second}
			for _, a := range addrs {
				if resp, err := client.Get(a + "/healthz"); err == nil {
					resp.Body.Close()
					t.Errorf("%s still answers /healthz after parsecbench exited", a)
				}
			}
		})
	}
}

// childAddrs returns the distinct base URLs that the logs in dir
// announce after marker ("listening on" for parsecd, "routing on" for
// parsecrouter).
func childAddrs(t *testing.T, dir, marker string) []string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(regexp.QuoteMeta(marker) + ` (http://[^\s]+)`)
	seen := map[string]bool{}
	var out []string
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				out = append(out, m[1])
			}
		}
	}
	return out
}
