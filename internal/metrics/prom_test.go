package metrics

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, text string) []*Family {
	t.Helper()
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

func write(fams []*Family) string {
	var b strings.Builder
	NewWriter(&b).Families(fams)
	return b.String()
}

func TestParseTextGroupsHistogramSeries(t *testing.T) {
	fams := parse(t, `# HELP parsecd_batch_size requests coalesced per simulator run
# TYPE parsecd_batch_size histogram
parsecd_batch_size_bucket{le="1"} 3
parsecd_batch_size_bucket{le="+Inf"} 5
parsecd_batch_size_sum 9
parsecd_batch_size_count 5
# HELP parsecd_parses_total parses executed
# TYPE parsecd_parses_total counter
parsecd_parses_total 1.2e+06
`)
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2: %+v", len(fams), fams)
	}
	h := fams[0]
	if h.Name != "parsecd_batch_size" || h.Type != "histogram" || h.Help != "requests coalesced per simulator run" {
		t.Errorf("histogram family = %q type %q help %q", h.Name, h.Type, h.Help)
	}
	var ids []string
	for _, s := range h.Series {
		ids = append(ids, s.ID())
	}
	if got, want := strings.Join(ids, " "), `parsecd_batch_size_bucket{le="1"} parsecd_batch_size_bucket{le="+Inf"} parsecd_batch_size_sum parsecd_batch_size_count`; got != want {
		t.Errorf("histogram series %s, want %s", got, want)
	}
	if c := fams[1]; c.Name != "parsecd_parses_total" || c.Type != "counter" || len(c.Series) != 1 || c.Series[0].Value != 1.2e6 {
		t.Errorf("counter family = %+v", c)
	}
}

// TestParseTextGroupingIgnoresLineOrder: a histogram's series belong to
// it wherever its TYPE line falls, and a name with a HELP or TYPE line
// of its own is never folded into a histogram.
func TestParseTextGroupingIgnoresLineOrder(t *testing.T) {
	fams := parse(t, `x_sum 1
# TYPE x histogram
x_bucket{le="+Inf"} 2
# HELP x_count counted separately
x_count 3
`)
	got := map[string]int{}
	for _, f := range fams {
		got[f.Name] = len(f.Series)
	}
	if len(fams) != 2 || got["x"] != 2 || got["x_count"] != 1 {
		t.Errorf("families %v, want x with 2 series and x_count with 1", got)
	}
}

// TestParseTextSkipsMalformedLines keeps every well-formed line of a
// body full of broken ones.
func TestParseTextSkipsMalformedLines(t *testing.T) {
	fams := parse(t, `# HELP
# TYPE a
#HELP a no space after the hash
garbage line without a number x
a_bad abc
a_open{code="200" 3
a_unquoted{code=200} 3
{code="200"} 1
a_fields 1 2 3
a 4
a{le="1"} 5
`)
	if got := write(fams); got != "a 4\na{le=\"1\"} 5\n" {
		t.Errorf("kept:\n%s\nwant only the two well-formed samples", got)
	}
}

func TestSeriesLabel(t *testing.T) {
	s := parse(t, `m{le="0.5",shard="http://a:1",q="say \"hi\"\\\n",} 1`)[0].Series[0]
	for key, want := range map[string]string{"le": "0.5", "shard": "http://a:1", "q": "say \"hi\"\\\n"} {
		if got, ok := s.Label(key); !ok || got != want {
			t.Errorf("Label(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if _, ok := s.Label("missing"); ok {
		t.Error("Label found a key that is not there")
	}
}

func TestTotalsSumAcrossLabels(t *testing.T) {
	v := Totals(parse(t, `parsecrouter_sheds_total{class="interactive"} 3
parsecrouter_sheds_total{class="bulk"} 4
parsecd_parses_total 5
`))
	if v["parsecrouter_sheds_total"] != 7 || v["parsecd_parses_total"] != 5 {
		t.Errorf("totals %v", v)
	}
}

// TestWriterFormats pins the exposition's number and label formats:
// integers exact at any size, fractional sample values in full,
// histogram bounds and sums to six significant digits, label values
// escaped, uptime to the millisecond.
func TestWriterFormats(t *testing.T) {
	h := NewHistogram(0.00031623000000000003, 2)
	h.Observe(0.0001234567)
	h.Observe(1.5)
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("c_total", "a counter", 1<<60)
	w.Header("g", "gauge", "")
	w.Sample("g", 1.2e6, "shard", `a"b\c`)
	tenth := 0.1
	w.Sample("g", tenth+0.2)
	w.Histogram("h", "a histogram", h)
	want := `# HELP c_total a counter
# TYPE c_total counter
c_total 1152921504606846976
# TYPE g gauge
g{shard="a\"b\\c"} 1200000
g 0.30000000000000004
# HELP h a histogram
# TYPE h histogram
h_bucket{le="0.00031623"} 1
h_bucket{le="2"} 2
h_bucket{le="+Inf"} 2
h_sum 1.50012
h_count 2
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}

	b.Reset()
	w.Uptime("up", "uptime", time.Now().Add(-1500*time.Millisecond))
	if !regexp.MustCompile(`^# HELP up uptime\n# TYPE up gauge\nup (1\.[5-9]|[2-9]\.\d|\d{2,}\.\d)\d\d\n$`).MatchString(b.String()) {
		t.Errorf("uptime not in seconds to the millisecond:\n%s", b.String())
	}
}

// FuzzParseText feeds the shared parser arbitrary /metrics bodies — the
// input is another process's output. Seeds (testdata/fuzz) are a real
// parsecd exposition, a real router aggregate and a body of malformed
// lines. ParseText must not panic, and writing what it parsed must be a
// fixed point: parsing and writing the written text again changes
// nothing.
func FuzzParseText(f *testing.F) {
	f.Add("# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_sum 0.5\nx_count 1\n")
	f.Add("m{a=\"1\",b=\"x\\\"y\"} 2\n")
	f.Fuzz(func(t *testing.T, body string) {
		fams, err := ParseText(strings.NewReader(body))
		if err != nil {
			return // a line past the scanner's limit
		}
		once := write(fams)
		again, err := ParseText(strings.NewReader(once))
		if err != nil {
			t.Fatalf("re-parse of written text: %v", err)
		}
		if twice := write(again); twice != once {
			t.Fatalf("write∘parse is not idempotent:\nonce:\n%s\ntwice:\n%s", once, twice)
		}
	})
}
