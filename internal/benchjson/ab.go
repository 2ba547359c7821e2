package benchjson

import (
	"math"
	"slices"
)

// ABRow compares one metric of one benchmark between two trees, base
// and head, over paired runs: the i-th runs of the benchmark on the two
// sides form pair i.
type ABRow struct {
	Pkg, Name, Metric string
	// Base and Head are each side's median over its runs.
	Base, Head float64
	// Ratio is the median of the pairs' head/base ratios, and RatioMin
	// and RatioMax are their range (NaN when no pair has a ratio).
	Ratio, RatioMin, RatioMax float64
	// Wins counts the pairs in which head is better: lower, or higher
	// for sents_per_sec. Pairs counts the pairs.
	Wins, Pairs int
}

// CompareAB pairs base and head results by (pkg, name) in run order,
// as two benchmark binaries run alternately print them, and returns a
// row per benchmark and metric, benchmarks in head's first-seen order.
// A benchmark that only one side ran, and a metric that reads zero in
// every run of both sides, get no row. A pair whose base reads zero
// has ratio 1 when head reads zero too, and no ratio otherwise.
func CompareAB(base, head []Result) []ABRow {
	type key struct{ pkg, name string }
	baseRuns := make(map[key][]Result)
	for _, r := range base {
		k := key{r.Pkg, r.Name}
		baseRuns[k] = append(baseRuns[k], r)
	}
	headRuns := make(map[key][]Result)
	var order []key
	for _, r := range head {
		k := key{r.Pkg, r.Name}
		if headRuns[k] == nil {
			order = append(order, k)
		}
		headRuns[k] = append(headRuns[k], r)
	}
	nonzero := func(v float64) bool { return v != 0 }
	var out []ABRow
	for _, k := range order {
		b, h := baseRuns[k], headRuns[k]
		n := min(len(b), len(h))
		if n == 0 {
			continue
		}
		for _, m := range metricFields {
			if m.name == "ns_per_op_min" || m.name == "ns_per_op_max" {
				continue // a folded row's range, not a run's metric
			}
			row := ABRow{Pkg: k.pkg, Name: k.name, Metric: m.name, Pairs: n}
			bv, hv := make([]float64, n), make([]float64, n)
			var ratios []float64
			for i := range n {
				bv[i], hv[i] = *m.of(&b[i]), *m.of(&h[i])
				switch {
				case bv[i] != 0:
					ratios = append(ratios, hv[i]/bv[i])
				case hv[i] == 0:
					ratios = append(ratios, 1)
				}
				better := hv[i] < bv[i]
				if m.name == "sents_per_sec" {
					better = hv[i] > bv[i]
				}
				if better {
					row.Wins++
				}
			}
			if !slices.ContainsFunc(bv, nonzero) && !slices.ContainsFunc(hv, nonzero) {
				continue
			}
			row.Base, row.Head = median(bv), median(hv)
			row.Ratio, row.RatioMin, row.RatioMax = math.NaN(), math.NaN(), math.NaN()
			if len(ratios) > 0 {
				row.RatioMin, row.RatioMax = slices.Min(ratios), slices.Max(ratios)
				row.Ratio = median(ratios)
			}
			out = append(out, row)
		}
	}
	return out
}
