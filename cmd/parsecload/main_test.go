package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/benchjson"
	"repro/internal/router"
	"repro/internal/server"
)

// TestSmokeLoadAgainstInProcessServer exercises the whole load path in
// tier-1: an in-process parsecd handler, the -smoke request mix, and
// the /metrics scrape at the end of the run.
func TestSmokeLoadAgainstInProcessServer(t *testing.T) {
	s := server.New(server.Config{Workers: 4, BatchWindow: 5 * time.Millisecond})
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

// TestJSONSummaryRoundTrip: -json must put exactly one decodable
// benchjson.LoadSummary object on stdout — no human-format lines — and
// the decoded summary must re-encode to the same bytes (the decode
// round trip cmd/parsecbench depends on).
func TestJSONSummaryRoundTrip(t *testing.T) {
	s := server.New(server.Config{Workers: 4, BatchWindow: time.Millisecond, ShardName: "s0"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-url", ts.URL, "-backend", "serial",
		"-n", "24", "-c", "4", "-zipf", "1.4", "-zipf-pool", "6", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw := out.Bytes()
	if !bytes.HasPrefix(bytes.TrimSpace(raw), []byte("{")) {
		t.Fatalf("stdout is not one JSON object:\n%s", raw)
	}
	var sum benchjson.LoadSummary
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("decode summary: %v\n%s", err, raw)
	}
	if dec.More() {
		t.Fatalf("trailing output after the summary object:\n%s", raw)
	}
	if sum.Mode != "parse" || sum.Seed != 1 || sum.Requests != 24 {
		t.Errorf("summary header mismatch: %+v", sum)
	}
	if sum.ByStatus["200"] != 24 || sum.ByShard["s0"] != 24 {
		t.Errorf("attribution mismatch: by_status=%v by_shard=%v", sum.ByStatus, sum.ByShard)
	}
	if sum.Latency.P50 <= 0 || sum.Latency.P99 < sum.Latency.P50 || sum.Latency.Max < sum.Latency.P99 {
		t.Errorf("quantiles not ordered: %+v", sum.Latency)
	}
	if sum.ThroughputRPS <= 0 || sum.ElapsedNs <= 0 {
		t.Errorf("throughput accounting missing: %+v", sum)
	}
	if sum.Server == nil || sum.Server.CacheHits == 0 {
		t.Errorf("server-side scrape missing (zipf reuse must hit the result cache): %+v", sum.Server)
	}
	// Re-encode and decode again: the summary is a stable value type.
	reenc, err := json.Marshal(&sum)
	if err != nil {
		t.Fatal(err)
	}
	var sum2 benchjson.LoadSummary
	if err := json.Unmarshal(reenc, &sum2); err != nil {
		t.Fatal(err)
	}
	if sum2.Requests != sum.Requests || sum2.Latency != sum.Latency ||
		*sum2.Server != *sum.Server || sum2.ByShard["s0"] != sum.ByShard["s0"] {
		t.Errorf("round trip drifted:\n  first  %+v\n  second %+v", sum, sum2)
	}
}

// TestJSONRampSummary: ramp mode with -json records every step and the
// best sustained concurrency in the ramp section.
func TestJSONRampSummary(t *testing.T) {
	s := server.New(server.Config{Workers: 4, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-url", ts.URL, "-backend", "serial",
		"-n", "8", "-c", "2", "-ramp", "-ramp-steps", "2", "-ramp-target", "30s", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var sum benchjson.LoadSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if sum.Ramp == nil || len(sum.Ramp.Steps) != 2 || sum.Ramp.BestConc != 4 {
		t.Fatalf("ramp record mismatch: %+v", sum.Ramp)
	}
	for i, step := range sum.Ramp.Steps {
		if !step.WithinBudget || step.Concurrency != 2<<i {
			t.Errorf("step %d mismatch: %+v", i, step)
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
	s := server.New(server.Config{Workers: 4, BatchWindow: time.Millisecond})
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
	s := server.New(server.Config{Workers: 4, BatchWindow: time.Millisecond})
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

	ss := serverSideFrom(ts.Client(), ts.URL)
	if ss == nil || ss.CacheHits != 1200000 || ss.CacheMisses != 2 {
		t.Fatalf("server side read through the router = %+v, want 1200000 hits and 2 misses", ss)
	}
}
