package benchfleet

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

const promFixture = `# HELP parsecd_requests_total requests served
# TYPE parsecd_requests_total counter
parsecd_requests_total 42
parsecrouter_sheds_total{class="interactive"} 3
parsecrouter_sheds_total{class="bulk"} 4
parsecd_parse_latency_seconds_bucket{le="0.01"} 5
parsecd_parse_latency_seconds_bucket{le="0.05"} 9
parsecd_parse_latency_seconds_bucket{le="+Inf"} 10
parsecd_parse_latency_seconds_sum 0.31
parsecd_parse_latency_seconds_count 10

garbage line without a value x
`

// TestParsePrometheus: a scrape keeps every sample summed across its
// label sets by name — histogram buckets across their bounds too, which
// the report never reads — and skips malformed lines.
func TestParsePrometheus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(promFixture)) //nolint:errcheck
	}))
	defer ts.Close()
	got, err := scrape(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := Scrape{
		"parsecd_requests_total":               42,
		"parsecrouter_sheds_total":             7, // summed across label sets
		"parsecd_parse_latency_seconds_bucket": 24,
		"parsecd_parse_latency_seconds_sum":    0.31,
		"parsecd_parse_latency_seconds_count":  10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scrape = %v, want %v", got, want)
	}
}

// TestScrapeInto: a scrape reads the source's /metrics path, and a
// non-200 answer or a dead endpoint is an error, not a panic or an
// empty scrape — a killed shard is absent from the boundary.
func TestScrapeInto(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(promFixture)) //nolint:errcheck
	}))
	defer ts.Close()

	if s, err := scrape(ts.Client(), ts.URL); err != nil || s["parsecd_requests_total"] != 42 {
		t.Fatalf("scrape = %v, %v want parsecd_requests_total 42", s, err)
	}
	if _, err := scrape(ts.Client(), ts.URL+"/elsewhere"); err == nil {
		t.Fatal("scrape answered 404 should fail")
	}
	ts.Close()
	if _, err := scrape(ts.Client(), ts.URL); err == nil {
		t.Fatal("scrape of a closed server should fail")
	}
}
