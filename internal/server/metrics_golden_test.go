package server

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// goldenMasks lists the series whose values differ from run to run, by
// prefix, each with the only format its value may take. A masked value
// is replaced by that format, so a change of format still fails the
// golden comparison. Timing feeds the latency buckets and sums;
// core.LayoutCacheStats and cdg.EvalCacheStats are process-global and
// depend on what other tests ran first.
var goldenMasks = []struct{ prefix, verb string }{
	{"parsecd_uptime_seconds", "%.3f"},
	{"parsecd_layout_cache_", "%d"},
	{"parsecd_eval_compile", "%d"},
	{"parsecd_queue_wait_seconds_bucket", "%d"},
	{"parsecd_parse_latency_seconds_bucket", "%d"},
	{"parsecd_queue_wait_seconds_sum", "%.6g"},
	{"parsecd_parse_latency_seconds_sum", "%.6g"},
}

// maskExposition applies goldenMasks to a text exposition.
func maskExposition(t *testing.T, body string) string {
	t.Helper()
	var out strings.Builder
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		for _, m := range goldenMasks {
			if !strings.HasPrefix(line, m.prefix) || strings.HasPrefix(line, "#") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			series, val := line[:i], line[i+1:]
			if verbMatches(m.verb, val) {
				val = "<" + m.verb + ">"
			}
			line = series + " " + val
			break
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

// verbMatches reports whether val is exactly how verb prints its value.
func verbMatches(verb, val string) bool {
	if verb == "%d" {
		n, err := strconv.ParseUint(val, 10, 64)
		return err == nil && fmt.Sprint(n) == val
	}
	f, err := strconv.ParseFloat(val, 64)
	return err == nil && fmt.Sprintf(verb, f) == val
}

// TestMetricsGolden pins parsecd's /metrics exposition — every HELP and
// TYPE line, series id, order and number format — after a fixed,
// sequential request sequence. Run with -update to rewrite the golden
// file after a deliberate change to the exposition.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, step := range []struct {
		path string
		body any
		want int
	}{
		{"/v1/parse", ParseRequest{Grammar: "demo", Backend: "serial", Text: "the program runs"}, http.StatusOK},
		{"/v1/parse", ParseRequest{Grammar: "demo", Backend: "serial", Text: "the program runs"}, http.StatusOK}, // result-cache hit
		{"/v1/parse", ParseRequest{Grammar: "demo", Backend: "maspar", Text: "the program runs"}, http.StatusOK},
		{"/v1/parse", ParseRequest{Grammar: "demo", Backend: "pram", Text: "a program runs", NoCache: true}, http.StatusOK},
		{"/v1/parse", ParseRequest{Grammar: "no-such-grammar", Text: "x"}, http.StatusNotFound},
		{"/v1/parse", []byte("{not json"), http.StatusBadRequest},
		{"/v1/lattice", LatticeRequest{Grammar: "english", Slots: englishLatticeSlots()}, http.StatusOK},
	} {
		if status, data := postJSON(t, ts.URL+step.path, step.body); status != step.want {
			t.Fatalf("POST %s: status %d, want %d: %s", step.path, status, step.want, data)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := maskExposition(t, string(data))

	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
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
				t.Fatalf("/metrics diverges from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
