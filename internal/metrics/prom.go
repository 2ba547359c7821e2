package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Family is one metric family: its HELP, its TYPE and its series in
// the order they appeared. A histogram's _bucket, _sum and _count
// series are filed under the histogram's own name.
type Family struct {
	Name, Help, Type string
	Series           []Series
}

// Series is one sample line: its name, its label pairs as written
// (without the braces, e.g. le="0.5") and its value.
type Series struct {
	Name, Labels string
	Value        float64
}

// ID is the series' identity: its name and its label set as written.
func (s Series) ID() string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

// The text format's line grammar.
var (
	declRe   = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) +(\S.*)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?[ \t]+(\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// Label returns the unescaped value of label key.
func (s Series) Label(key string) (string, bool) {
	for _, m := range labelRe.FindAllStringSubmatch(s.Labels, -1) {
		if m[1] == key {
			v, err := strconv.Unquote(`"` + m[2] + `"`)
			return v, err == nil
		}
	}
	return "", false
}

// ParseText reads a text exposition (format 0.0.4), skipping lines it
// cannot parse: a scrape is read best-effort, not validated. Series
// named X_bucket, X_sum or X_count move under X when X is declared a
// histogram and their own name has no HELP or TYPE line, wherever the
// TYPE line falls.
func ParseText(r io.Reader) ([]*Family, error) {
	var fams []*Family
	byName := make(map[string]*Family)
	family := func(name string) *Family {
		if byName[name] == nil {
			byName[name] = &Family{Name: name}
			fams = append(fams, byName[name])
		}
		return byName[name]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := declRe.FindStringSubmatch(line); m != nil {
			if f := family(m[2]); m[1] == "HELP" && f.Help == "" {
				f.Help = m[3]
			} else if m[1] == "TYPE" && f.Type == "" {
				f.Type = m[3]
			}
		} else if m := sampleRe.FindStringSubmatch(line); m != nil {
			if v, err := strconv.ParseFloat(m[3], 64); err == nil {
				f := family(m[1])
				f.Series = append(f.Series, Series{Name: m[1], Labels: m[2], Value: v})
			}
		}
	}
	kept := fams[:0]
	for _, f := range fams {
		if h := histogramOf(f, byName); h != nil {
			h.Series = append(h.Series, f.Series...)
		} else {
			kept = append(kept, f)
		}
	}
	return kept, sc.Err()
}

// histogramOf returns the histogram an undeclared X_bucket, X_sum or
// X_count family belongs to, or nil.
func histogramOf(f *Family, byName map[string]*Family) *Family {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(f.Name, suffix)
		if h := byName[base]; ok && f.Help == "" && f.Type == "" && h != nil && h.Type == "histogram" {
			return h
		}
	}
	return nil
}

// Totals sums every series across its label sets, by name:
// parsecrouter_sheds_total{class="bulk"} and {class="interactive"} add
// into parsecrouter_sheds_total.
func Totals(fams []*Family) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Series {
			out[s.Name] += s.Value
		}
	}
	return out
}

// Writer writes the text exposition format. Write errors are dropped:
// a scraper that hangs up only loses its own body.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w} }

// Header writes a family's HELP and TYPE lines, each skipped when
// empty.
func (w *Writer) Header(name, typ, help string) {
	if help != "" {
		fmt.Fprintf(w.w, "# HELP %s %s\n", name, help)
	}
	if typ != "" {
		fmt.Fprintf(w.w, "# TYPE %s %s\n", name, typ)
	}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Sample writes one series line; labels are key, value pairs.
func (w *Writer) Sample(name string, v float64, labels ...string) {
	var set []string
	for i := 0; i+1 < len(labels); i += 2 {
		set = append(set, labels[i]+`="`+labelEscaper.Replace(labels[i+1])+`"`)
	}
	w.series(name, strings.Join(set, ","), formatValue(v, -1))
}

// Counter writes a one-series counter family.
func (w *Writer) Counter(name, help string, v uint64) {
	w.Header(name, "counter", help)
	w.series(name, "", strconv.FormatUint(v, 10))
}

// Uptime writes a one-series gauge family: the seconds since started,
// to the millisecond.
func (w *Writer) Uptime(name, help string, started time.Time) {
	w.Header(name, "gauge", help)
	w.series(name, "", strconv.FormatFloat(time.Since(started).Seconds(), 'f', 3, 64))
}

// Histogram writes h as a histogram family, its bounds and sum to six
// significant digits.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	bounds, cum, sum, count := h.Snapshot()
	w.Header(name, "histogram", help)
	for i, c := range cum {
		le := "+Inf"
		if i < len(bounds) {
			le = formatValue(bounds[i], 6)
		}
		w.series(name+"_bucket", `le="`+le+`"`, strconv.FormatUint(c, 10))
	}
	w.series(name+"_sum", "", formatValue(sum, 6))
	w.series(name+"_count", "", strconv.FormatUint(count, 10))
}

// Families writes parsed families back out.
func (w *Writer) Families(fams []*Family) {
	for _, f := range fams {
		w.Header(f.Name, f.Type, f.Help)
		for _, s := range f.Series {
			w.series(s.Name, s.Labels, formatValue(s.Value, -1))
		}
	}
}

func (w *Writer) series(name, labels, value string) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w.w, "%s%s %s\n", name, labels, value)
}

// formatValue is the one number format: an integral value below 2^53
// as a plain integer — never 1.2e+06, which an integer parser reads as
// 0 — and any other value to prec significant digits (-1: the fewest
// that parse back to v).
func formatValue(v float64, prec int) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', prec, 64)
}
