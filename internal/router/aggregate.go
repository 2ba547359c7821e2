package router

import (
	"bytes"
	"sort"

	"repro/internal/metrics"
)

// aggregate folds the shards' /metrics bodies into the fleet's
// exposition, which reads like one big parsecd: counter and histogram
// series are summed across shards. Gauge families (uptime, queue
// depth) cannot be summed — a point-in-time value added across nodes
// is meaningless — so they become the max across shards under a
// `_max`-suffixed name: the hottest node's value is the backpressure
// signal a fleet operator needs, and the rename keeps the series
// honest about not being the one-node gauge. Families come out sorted
// by name; a histogram keeps its series order (buckets ascending, then
// _sum and _count), other families sort theirs by id. Lines a shard's
// body cannot parse are skipped.
func aggregate(bodies [][]byte) []*metrics.Family {
	fams, _ := metrics.ParseText(bytes.NewReader(bytes.Join(bodies, []byte("\n")))) // best-effort
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	out := fams[:0]
	for _, f := range fams {
		at := make(map[string]int) // series id → index in merged
		var merged []metrics.Series
		for _, s := range f.Series {
			i, seen := at[s.ID()]
			switch {
			case !seen:
				at[s.ID()] = len(merged)
				merged = append(merged, s)
			case f.Type == "gauge":
				merged[i].Value = max(merged[i].Value, s.Value)
			default:
				merged[i].Value += s.Value
			}
		}
		if len(merged) == 0 {
			continue
		}
		if f.Type != "histogram" {
			sort.SliceStable(merged, func(i, j int) bool { return merged[i].ID() < merged[j].ID() })
		}
		if f.Type == "gauge" {
			for i := range merged {
				merged[i].Name = f.Name + "_max" + merged[i].Name[len(f.Name):]
			}
			f.Name += "_max"
			if f.Help != "" {
				f.Help = "max across shards: " + f.Help
			}
		}
		f.Series = merged
		out = append(out, f)
	}
	return out
}
