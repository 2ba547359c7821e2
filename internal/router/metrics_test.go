package router

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current exposition")

// fakeShards stands in for a parsecd fleet inside the router's HTTP
// client: each request is served by the handler registered for its
// host, in process, so shard URLs (and hence HRW placement) are fixed.
type fakeShards map[string]http.Handler

func (f fakeShards) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := f[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no shard at %s", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if err := req.Context().Err(); err != nil {
		return nil, err // as net/http reports a cancelled request
	}
	return rec.Result(), nil
}

// fakeShard answers /v1/parse with parseStatus, /healthz with
// healthStatus, and /metrics with metricsBody (500 when empty).
func fakeShard(parseStatus, healthStatus int, metricsBody string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/parse":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(parseStatus)
			io.WriteString(w, `{"accepted":true}`) //nolint:errcheck
		case "/healthz":
			w.WriteHeader(healthStatus)
		case "/metrics":
			if metricsBody == "" {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			io.WriteString(w, metricsBody) //nolint:errcheck
		default:
			http.NotFound(w, req)
		}
	})
}

// get serves one GET through h and returns the body.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.String()
}

// TestRouterMetricsGolden pins the router's own parsecrouter_* block —
// every HELP and TYPE line, series id, order and number format — after
// a fixed request sequence against a fixed two-shard fleet: one shard
// healthy, one answering 503 to parses, probes and scrapes. The uptime
// value is masked to its format. Run with -update to rewrite the
// golden file after a deliberate change to the exposition.
func TestRouterMetricsGolden(t *testing.T) {
	shards := fakeShards{
		"shard-a:1": fakeShard(http.StatusOK, http.StatusOK, "# TYPE parsecd_parses_total counter\nparsecd_parses_total 1\n"),
		"shard-b:1": fakeShard(http.StatusServiceUnavailable, http.StatusServiceUnavailable, ""),
	}
	r, err := New(Config{
		Shards:        []string{"http://shard-a:1", "http://shard-b:1"},
		ProbeInterval: -1,
		Client:        &http.Client{Transport: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"the program runs", "a program runs", "the program halts", "programs run"} {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse",
			strings.NewReader(`{"grammar":"demo","backend":"serial","text":"`+text+`"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("parse %q: status %d", text, rec.Code)
		}
	}
	r.ProbeOnce(context.Background())
	body := get(t, r.Handler(), "/metrics")

	i := strings.Index(body, "# HELP parsecrouter_")
	if i < 0 {
		t.Fatalf("no parsecrouter_ block in:\n%s", body)
	}
	var got strings.Builder
	sc := bufio.NewScanner(strings.NewReader(body[i:]))
	for sc.Scan() {
		line := sc.Text()
		if val, ok := strings.CutPrefix(line, "parsecrouter_uptime_seconds "); ok {
			if f, err := strconv.ParseFloat(val, 64); err == nil && fmt.Sprintf("%.3f", f) == val {
				line = "parsecrouter_uptime_seconds <%.3f>"
			}
		}
		got.WriteString(line + "\n")
	}
	checkGolden(t, "testdata/metrics.golden", got.String())
}

// checkGolden compares got with the golden file at path (rewriting it
// first under -update) and reports the first differing line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("exposition diverges from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// fleetMetrics serves the router's /metrics over two fake shards that
// expose bodyA and bodyB.
func fleetMetrics(t *testing.T, bodyA, bodyB string) string {
	t.Helper()
	r, err := New(Config{
		Shards:        []string{"http://shard-a:1", "http://shard-b:1"},
		ProbeInterval: -1,
		Client: &http.Client{Transport: fakeShards{
			"shard-a:1": fakeShard(http.StatusOK, http.StatusOK, bodyA),
			"shard-b:1": fakeShard(http.StatusOK, http.StatusOK, bodyB),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return get(t, r.Handler(), "/metrics")
}

// TestMetricsAggregateKeepsHistogramFamilies is the regression test for
// histograms in the fleet aggregate: their _bucket, _sum and _count
// series used to be filed as three families of their own, which lost
// the HELP and TYPE lines and sorted the buckets as strings, +Inf
// first.
func TestMetricsAggregateKeepsHistogramFamilies(t *testing.T) {
	shard := `# HELP parsecd_batch_size requests coalesced per simulator run
# TYPE parsecd_batch_size histogram
parsecd_batch_size_bucket{le="1"} 3
parsecd_batch_size_bucket{le="2"} 4
parsecd_batch_size_bucket{le="10"} 4
parsecd_batch_size_bucket{le="+Inf"} 5
parsecd_batch_size_sum 9
parsecd_batch_size_count 5
`
	want := `# HELP parsecd_batch_size requests coalesced per simulator run
# TYPE parsecd_batch_size histogram
parsecd_batch_size_bucket{le="1"} 6
parsecd_batch_size_bucket{le="2"} 8
parsecd_batch_size_bucket{le="10"} 8
parsecd_batch_size_bucket{le="+Inf"} 10
parsecd_batch_size_sum 18
parsecd_batch_size_count 10
`
	if got := fleetMetrics(t, shard, shard); !strings.HasPrefix(got, want) {
		t.Errorf("aggregate histogram:\n%s\nwant it to start with:\n%s", got, want)
	}
}

// TestMetricsAggregatePrintsIntegersExactly is the regression test for
// large sums in the fleet aggregate: 2×600,000 used to be written as
// 1.2e+06, which an integer parser (parsecload's, until it moved to
// the shared one) reads as 0. Fractional sums keep every digit.
func TestMetricsAggregatePrintsIntegersExactly(t *testing.T) {
	shard := func(hits, cycles, seconds string) string {
		return "# TYPE parsecd_result_cache_hits_total counter\nparsecd_result_cache_hits_total " + hits +
			"\n# TYPE parsecd_work_maspar_cycles_total counter\nparsecd_work_maspar_cycles_total " + cycles +
			"\n# TYPE parsecd_parse_latency_seconds histogram\nparsecd_parse_latency_seconds_sum " + seconds + "\n"
	}
	got := fleetMetrics(t, shard("600000", "1357620", "0.125"), shard("600000", "1357620", "0.0625"))
	for _, want := range []string{
		"parsecd_parse_latency_seconds_sum 0.1875\n",
		"parsecd_result_cache_hits_total 1200000\n",
		"parsecd_work_maspar_cycles_total 2715240\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("aggregate missing %q:\n%s", want, got)
		}
	}
}
