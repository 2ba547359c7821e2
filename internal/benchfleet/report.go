package benchfleet

import (
	"net/http"
	"runtime"
	"slices"

	"repro/internal/benchjson"
	"repro/internal/metrics"
)

// Exposed metric family names the report reduces over. These are the
// literal names internal/server and internal/router register, verified
// by the metricflow lint.
const (
	famCacheHits   = "parsecd_result_cache_hits_total"
	famCacheMisses = "parsecd_result_cache_misses_total"
	famFailovers   = "parsecrouter_failovers_total"
	famSheds       = "parsecrouter_sheds_total"
)

// Queries below take a phase name ("" for the whole run) and a shard
// name ("" for any shard, or the whole fleet).

// phaseIndices returns the indices of the phases phase selects.
func (r *RunResult) phaseIndices(phase string) []int {
	var out []int
	for i, p := range r.Phases {
		if phase == "" || p.Name == phase {
			out = append(out, i)
		}
	}
	return out
}

// requests returns the records of the selected phases that shard
// answered.
func (r *RunResult) requests(phase, shard string) []Request {
	var out []Request
	for _, i := range r.phaseIndices(phase) {
		for _, q := range r.Phases[i].Requests {
			if shard == "" || q.Shard == shard {
				out = append(out, q)
			}
		}
	}
	return out
}

// CountRequests counts the selected records whose status statusOK
// accepts (nil accepts every record, transport errors included).
func (r *RunResult) CountRequests(phase, shard string, statusOK func(int) bool) int {
	n := 0
	for _, q := range r.requests(phase, shard) {
		if statusOK == nil || statusOK(q.Status) {
			n++
		}
	}
	return n
}

// Lost counts the phase's requests that did not get a 200 — the metric
// the fault-tolerance claims gate on (a healthy fleet with failover
// loses zero requests through a kill phase).
func (p *PhaseResult) Lost() int {
	n := 0
	for _, q := range p.Requests {
		if q.Status != http.StatusOK {
			n++
		}
	}
	return n
}

// Quantile returns the p-quantile of the selected records' latency in
// nanoseconds (metrics.Quantile's index rule); ok is false when no
// record matches.
func (r *RunResult) Quantile(phase, shard string, p float64) (latNs int64, ok bool) {
	reqs := r.requests(phase, shard)
	if len(reqs) == 0 {
		return 0, false
	}
	lats := make([]int64, len(reqs))
	for i, q := range reqs {
		lats[i] = q.LatNs
	}
	slices.Sort(lats)
	return metrics.Quantile(lats, p), true
}

// Delta returns how much the counter family grew at source over the
// phase, summed over the phases for the whole run. A phase's baseline
// is the source's value at its opening boundary: the previous phase's
// closing scrape, or Pre. A source absent there was down, so a shard
// revived at the boundary counts from zero; a closing value below the
// baseline is a counter reset, and the phase counts the closing value
// (Prometheus' increase rule). ok is false when no selected closing
// scrape of the source carries the family.
func (r *RunResult) Delta(family, source, phase string) (float64, bool) {
	total, ok := 0.0, false
	for _, i := range r.phaseIndices(phase) {
		last, present := r.Phases[i].Scrapes[source][family]
		if !present {
			continue
		}
		opening := r.Pre
		if i > 0 {
			opening = r.Phases[i-1].Scrapes
		}
		if base := opening[source][family]; last >= base {
			last -= base
		}
		total, ok = total+last, true
	}
	return total, ok
}

// SumDelta sums Delta across the fleet's shards (router excluded).
func (r *RunResult) SumDelta(family, phase string) (float64, bool) {
	total, ok := 0.0, false
	for _, shard := range r.Shards {
		if v, present := r.Delta(family, shard, phase); present {
			total, ok = total+v, true
		}
	}
	return total, ok
}

// HitRate derives the result-cache hit rate of one shard (the whole
// fleet for shard "") over the phase from the hit and miss counter
// deltas. ok is false when there were no lookups.
func (r *RunResult) HitRate(shard, phase string) (float64, bool) {
	delta := func(family string) float64 {
		if shard == "" {
			v, _ := r.SumDelta(family, phase)
			return v
		}
		v, _ := r.Delta(family, shard, phase)
		return v
	}
	hits := delta(famCacheHits)
	lookups := hits + delta(famCacheMisses)
	if lookups == 0 {
		return 0, false
	}
	return hits / lookups, true
}

// BuildReport reduces a completed run to the shared benchjson schema:
// one result row for the whole run, one per phase, and one per
// (phase, shard) pair that answered requests — names are
// "Fleet/<scenario>/total", ".../phase=<p>" and
// ".../phase=<p>/shard=<s>". Iterations and latency quantiles come from
// the request records, hit rates and router counts from scrape deltas.
func BuildReport(res *RunResult) (*benchjson.Report, error) {
	rep := &benchjson.Report{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		Pkg:    "repro/internal/benchfleet",
	}
	prefix := "Fleet/" + res.Scenario.Name
	var elapsed int64
	for _, p := range res.Phases {
		elapsed += p.ElapsedNs
	}
	rep.Results = append(rep.Results, res.row(prefix+"/total", "", "", elapsed))
	for _, p := range res.Phases {
		rep.Results = append(rep.Results, res.row(prefix+"/phase="+p.Name, p.Name, "", p.ElapsedNs))
		for _, shard := range res.Shards {
			// A shard that answered nothing in the phase (killed before
			// it, typically) gets no row: an all-zero row only adds noise.
			if row := res.row(prefix+"/phase="+p.Name+"/shard="+shard, p.Name, shard, 0); row.Iterations > 0 {
				rep.Results = append(rep.Results, row)
			}
		}
	}
	if err := benchjson.Validate(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// row reduces the records of one phase and shard to a report row.
// elapsedNs, zero for a shard row, gives ns/op and throughput; the
// router's failover and shed deltas fill the fleet rows.
func (r *RunResult) row(name, phase, shard string, elapsedNs int64) benchjson.Result {
	row := benchjson.Result{Name: name, Iterations: int64(r.CountRequests(phase, shard, nil))}
	if row.Iterations > 0 && elapsedNs > 0 {
		row.NsPerOp = float64(elapsedNs) / float64(row.Iterations)
		row.SentsPer = float64(row.Iterations) / (float64(elapsedNs) / 1e9)
	}
	if v, ok := r.Quantile(phase, shard, 0.50); ok {
		row.P50Ns = float64(v)
	}
	if v, ok := r.Quantile(phase, shard, 0.99); ok {
		row.P99Ns = float64(v)
	}
	row.HitRate, _ = r.HitRate(shard, phase)
	if shard == "" {
		row.Failovers, _ = r.Delta(famFailovers, RouterSource, phase)
		row.Sheds, _ = r.Delta(famSheds, RouterSource, phase)
	}
	return row
}
