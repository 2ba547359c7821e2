package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/router/clustertest"
	"repro/internal/server"
)

// TestSmokeLoadAgainstInProcessServer exercises the whole load path in
// tier-1: an in-process parsecd handler, the -smoke request mix, and
// the /metrics scrape at the end of the run.
func TestSmokeLoadAgainstInProcessServer(t *testing.T) {
	s := server.New(server.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// -no-cache so every request really parses: the assertion below
	// counts pool executions, which the result cache would elide for
	// duplicate sentences in the mix.
	var out bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-smoke", "-backend", "serial", "-hist", "-no-cache"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"seed=1", // the default seed is echoed so the run can be replayed
		"requests=32",
		"status 200: 32",
		"latency p50=",
		"throughput=",
		"server batching: batches=",
		// -hist appends the client-side latency histogram with the same
		// bucket layout the server exports.
		"# TYPE parsecload_request_latency_seconds histogram",
		"parsecload_request_latency_seconds_count 32",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if st := s.Stats(); st.Parses != 32 {
		t.Errorf("server executed %d parses, want 32", st.Parses)
	}
}

// TestHistReportsShardAttribution: when the serving side names itself
// via X-Parsec-Shard (a sharded router, or a parsecd with -shard-name),
// the report attributes every request to its shard and -hist exposes
// the counts as a Prometheus counter family.
func TestHistReportsShardAttribution(t *testing.T) {
	s := server.New(server.Config{Workers: 2, ShardName: "s0"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-backend", "serial", "-n", "12", "-c", "3", "-hist"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"  shard s0: 12",
		"# TYPE parsecload_shard_requests_total counter",
		`parsecload_shard_requests_total{shard="s0"} 12`,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestLoadReportsNon200s pins the error-accounting path: a grammar mix
// the server doesn't know must show up as 404s, not silent drops.
func TestLoadReportsNon200s(t *testing.T) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-n", "8", "-c", "2", "-grammars", "nope"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "status 404: 8") {
		t.Errorf("expected 8 404s:\n%s", out.String())
	}
}

// TestZipfModeHitsResultCache: skewed reuse over a small sentence pool
// must produce a majority of result-cache hits, and the report must
// surface the scraped hit rate.
func TestZipfModeHitsResultCache(t *testing.T) {
	s := server.New(server.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-url", ts.URL, "-backend", "serial",
		"-n", "120", "-c", "8", "-zipf", "1.4", "-zipf-pool", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"request mix: zipf s=1.4 over 8 distinct sentences",
		"status 200: 120",
		"server result cache: hits=",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	st := s.Stats()
	lookups := st.ResultCacheHits + st.ResultCacheMisses + st.ResultCacheCoalesced
	if lookups == 0 {
		t.Fatal("no result-cache lookups recorded")
	}
	reused := st.ResultCacheHits + st.ResultCacheCoalesced
	if rate := float64(reused) / float64(lookups); rate <= 0.5 {
		t.Errorf("cache reuse rate %.2f (hits=%d coalesced=%d misses=%d), want > 0.5 under zipf skew",
			rate, st.ResultCacheHits, st.ResultCacheCoalesced, st.ResultCacheMisses)
	}
	// At most one parse per distinct pool sentence (plus leader-failure
	// retries, which a healthy server doesn't produce).
	if st.Parses > 8 {
		t.Errorf("server executed %d parses for an 8-sentence pool", st.Parses)
	}
}

// TestZipfValidation: a skew ≤ 1 is rejected (rand.NewZipf's domain).
func TestZipfValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-zipf", "0.9"}, &out); err == nil {
		t.Error("zipf 0.9 accepted; want error")
	}
	if err := run([]string{"-zipf", "1.2", "-zipf-pool", "0"}, &out); err == nil {
		t.Error("zipf-pool 0 accepted; want error")
	}
}

// TestRampModeStepsAndReports drives the closed-loop mode against an
// in-process server with a generous latency budget: every step should
// pass until the step cap, and the report must carry the per-step lines
// and the final verdict.
func TestRampModeStepsAndReports(t *testing.T) {
	s := server.New(server.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-url", ts.URL, "-backend", "serial",
		"-n", "16", "-c", "2", "-ramp", "-ramp-steps", "3", "-ramp-target", "30s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"ramp: target p50=30s, 16 requests/step, up to 3 steps",
		"step 1: c=2",
		"step 2: c=4",
		"step 3: c=8",
		"[ok]",
		"ramp result: max sustainable c=8",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if st := s.Stats(); st.Parses == 0 {
		t.Error("ramp sent no traffic")
	}
}

// TestRampModeOverBudget: an impossible latency budget fails on step 1
// and reports that no step was sustainable.
func TestRampModeOverBudget(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-url", ts.URL, "-backend", "serial",
		"-n", "8", "-c", "2", "-ramp", "-ramp-steps", "4", "-ramp-target", "1ns"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "[over budget]") ||
		!strings.Contains(report, "ramp result: no step met the p50 budget") {
		t.Errorf("over-budget run not reported:\n%s", report)
	}
	if strings.Contains(report, "step 2:") {
		t.Errorf("ramp continued past a failed step:\n%s", report)
	}
}

// TestLatticeLoadSmoke drives the -lattice workload against an
// in-process server: every request must decode cleanly and the server's
// prefix-snapshot cache must show hits (utterances repeat across the
// run), which the report surfaces from /metrics.
func TestLatticeLoadSmoke(t *testing.T) {
	s := server.New(server.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-url", ts.URL, "-lattice", "-n", "24", "-c", "4",
		"-lattice-slots", "5", "-lattice-alts", "3", "-lattice-utterances", "6"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"lattice mode (english, 5 slots x 3 alts, 6 utterances)",
		"status 200: 24",
		"server lattice: requests=24",
		"server prefix cache: hits=",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	st := s.Stats()
	if st.LatticeRequests != 24 {
		t.Errorf("server served %d lattice requests, want 24", st.LatticeRequests)
	}
	if st.LatticePrefixHits == 0 {
		t.Errorf("no prefix-cache hits across %d repeated utterances:\n%s", 24, report)
	}
}

// TestServerSideReadsLargeCountersThroughRouter is the regression test
// for fleet counters past 10⁶: parsecrouter sums two shards' 600,000
// result-cache hits, and the end-of-run report must read 1,200,000,
// not 0.
func TestServerSideReadsLargeCountersThroughRouter(t *testing.T) {
	var shards []string
	for i := 0; i < 2; i++ {
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "# TYPE parsecd_result_cache_hits_total counter\nparsecd_result_cache_hits_total 600000\n"+ //nolint:errcheck
				"# TYPE parsecd_result_cache_misses_total counter\nparsecd_result_cache_misses_total 1\n")
		}))
		defer shard.Close()
		shards = append(shards, shard.URL)
	}
	rt, err := router.New(router.Config{Shards: shards, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	v := serverSideFrom(ts.Client(), ts.URL)
	if hits, misses := v["parsecd_result_cache_hits_total"], v["parsecd_result_cache_misses_total"]; hits != 1200000 || misses != 2 {
		t.Fatalf("server side read through the router = %g hits, %g misses, want 1200000 and 2", hits, misses)
	}
	var out bytes.Buffer
	printServerSide(&out, ts.Client(), ts.URL)
	if want := "server result cache: hits=1200000 misses=2"; !strings.Contains(out.String(), want) {
		t.Fatalf("report %q lacks %q", out.String(), want)
	}
}

// TestReportsRouterCacheThroughRouter: driven through a router, the
// report carries the router's own result-cache line, read from
// parsecrouter_result_cache_*, and its hits are the requests the
// router answered itself — which the shards' cache line cannot show,
// since the shards see only the router cache's misses.
func TestReportsRouterCacheThroughRouter(t *testing.T) {
	c := clustertest.New(t, 2, server.Config{Workers: 2}, router.Config{})
	var out bytes.Buffer
	err := run([]string{"-url", c.URL, "-backend", "serial",
		"-zipf", "1.3", "-zipf-pool", "12", "-n", "400"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	var hits, misses int
	i := strings.Index(report, "router result cache: ")
	if i < 0 {
		t.Fatalf("report has no router result-cache line:\n%s", report)
	}
	if _, err := fmt.Sscanf(report[i:], "router result cache: hits=%d misses=%d", &hits, &misses); err != nil {
		t.Fatalf("router result-cache line: %v\n%s", err, report)
	}
	if st := c.Router.Stats(); uint64(hits) != st.CacheHits || uint64(misses) != st.CacheMisses {
		t.Errorf("report reads hits=%d misses=%d, router counted %d and %d", hits, misses, st.CacheHits, st.CacheMisses)
	}
	if hits == 0 {
		t.Errorf("400 Zipf requests over 12 sentences got no router-cache hit:\n%s", report)
	}
	if strings.Contains(report, "router sheds:") {
		t.Errorf("sheds reported without admission control:\n%s", report)
	}
}
