package benchfleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
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

func TestParsePrometheus(t *testing.T) {
	parsed, err := metrics.ParseText(strings.NewReader(promFixture))
	if err != nil {
		t.Fatal(err)
	}
	fams := columns(parsed)
	cases := map[string]float64{
		"parsecd_requests_total":                42,
		"parsecrouter_sheds_total":              7, // summed across label sets
		"parsecd_parse_latency_seconds|le=0.01": 5,
		"parsecd_parse_latency_seconds|le=0.05": 9,
		"parsecd_parse_latency_seconds|le=+Inf": 10,
		"parsecd_parse_latency_seconds_sum":     0.31,
		"parsecd_parse_latency_seconds_count":   10,
	}
	for name, want := range cases {
		if got, ok := fams[name]; !ok || got != want {
			t.Errorf("%s = %g (present=%v), want %g", name, got, ok, want)
		}
	}
	if _, ok := fams["garbage"]; ok {
		t.Error("malformed line should be skipped")
	}
}

func TestScrapeInto(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(promFixture)) //nolint:errcheck
	}))
	defer ts.Close()

	st := NewStore([]string{"s0"})
	w := st.OpenWindow("p", 0)
	if err := ScrapeInto(ts.Client(), st, w, "s0", ts.URL); err != nil {
		t.Fatal(err)
	}
	st.CloseWindow(w, 0)
	// One column per sample name: labeled series summed under the bare
	// name, one column per histogram bound, malformed lines skipped.
	cases := map[string]float64{
		"parsecd_requests_total":                42,
		"parsecrouter_sheds_total":              7, // summed across label sets
		"parsecd_parse_latency_seconds|le=0.01": 5,
		"parsecd_parse_latency_seconds|le=0.05": 9,
		"parsecd_parse_latency_seconds|le=+Inf": 10,
		"parsecd_parse_latency_seconds_sum":     0.31,
		"parsecd_parse_latency_seconds_count":   10,
	}
	for name, want := range cases {
		if vals, present := st.Series(name, "s0"); len(vals) != 1 || !present[0] || vals[0] != want {
			t.Errorf("%s = %v (present=%v), want %g", name, vals, present, want)
		}
	}
	if fams := st.Families(); len(fams) != len(cases) {
		t.Errorf("columns %q, want exactly the %d above (malformed lines skipped)", fams, len(cases))
	}
	if d, ok := st.Delta("parsecd_requests_total", "s0", Query{Phase: "p"}); !ok || d != 42 {
		t.Fatalf("scraped requests delta = %g,%v want 42", d, ok)
	}
	if v, ok := st.HistQuantile("parsecd_parse_latency_seconds", "s0", Query{Phase: "p"}, 0.99); !ok || v != 0.05 {
		t.Fatalf("scraped hist p99 = %g,%v want 0.05", v, ok)
	}

	// A dead endpoint is an error, not a panic, and leaves no samples.
	ts.Close()
	if err := ScrapeInto(ts.Client(), st, w, "s0", ts.URL); err == nil {
		t.Fatal("scrape of a closed server should fail")
	}
}
