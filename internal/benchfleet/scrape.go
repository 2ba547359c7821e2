package benchfleet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// ScrapeInto fetches source's /metrics and stores it into window w of
// the store, one column per sample name (see columns). Scrape failures
// are returned, not fatal: a killed shard simply contributes no
// samples for the window.
func ScrapeInto(client *http.Client, st *Store, w int, source, baseURL string) error {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape %s: %w", source, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("scrape %s: status %d", source, resp.StatusCode)
	}
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", source, err)
	}
	cols := columns(fams)
	// Sorted iteration: SetSample appends columns on first sight, and
	// deterministic column-creation order keeps run artifacts
	// byte-stable for identical inputs.
	names := make([]string, 0, len(cols))
	for name := range cols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.SetSample(w, source, name, cols[name])
	}
	return nil
}

// columns flattens parsed families into the store's column → value
// map:
//
//   - labeled series are summed across label sets under the bare name
//     (parsecrouter_sheds_total{class="bulk"} + {class="interactive"}
//     → parsecrouter_sheds_total), matching how the router itself
//     aggregates fleet metrics;
//   - histogram buckets are the exception: each bound stays its own
//     column, "<base>|le=<bound>" with the _bucket suffix dropped, so
//     quantiles can be re-derived from bucket deltas later.
func columns(fams []*metrics.Family) map[string]float64 {
	cols := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Series {
			name := s.Name
			if base, isBucket := strings.CutSuffix(name, "_bucket"); isBucket {
				le, ok := s.Label("le")
				if !ok {
					continue
				}
				name = base + bucketKeySep + le
			}
			cols[name] += s.Value
		}
	}
	return cols
}
