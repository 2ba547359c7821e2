package benchfleet

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/metrics"
)

// Fleet abstracts the two ways a scenario can run: in-process on the
// clustertest harness (tier-1 tests: zero processes, zero sleeps) and
// as real local parsecd/parsecrouter processes (make bench-cluster).
// Both run every phase through the same driver and keep the same
// record.
type Fleet interface {
	// RouterURL is the base URL load is driven through.
	RouterURL() string
	// ShardNames returns the fleet's shard names in index order
	// (shard0..shardN-1 — the names the X-Parsec-Shard header carries).
	ShardNames() []string
	// ShardURL returns the base URL shard i's /metrics is scraped at.
	ShardURL(i int) string
	// ApplyFault applies one fault-schedule entry.
	ApplyFault(f Fault) error
	// AdvanceProbes steps membership n synchronous probe rounds where
	// the fleet supports deterministic probing (the harness); fleets
	// with a free-running prober wait that many probe periods instead.
	AdvanceProbes(n int)
	// Client is the HTTP client used for load and scrapes.
	Client() *http.Client
	// Close tears the fleet down.
	Close() error
}

// Request is one request's outcome as the client saw it.
type Request struct {
	// Shard is the X-Parsec-Shard of the reply; empty for a transport
	// error or a reply no shard answered.
	Shard string
	// Status is the HTTP status, 0 for a transport error.
	Status int
	LatNs  int64
}

// Scrape is one source's /metrics at a phase boundary: every sample
// summed across its label sets, by name (metrics.Totals).
type Scrape map[string]float64

// RouterSource keys the router's own scrape among the shard names.
const RouterSource = "router"

// PhaseResult is one phase's record: every request it sent and each
// source's closing scrape.
type PhaseResult struct {
	Name string
	// Requests holds one record per request, in request order.
	Requests  []Request
	ElapsedNs int64
	// Scrapes maps a shard name or RouterSource to the source's /metrics
	// after the phase; a source that did not answer (a killed shard) is
	// absent.
	Scrapes map[string]Scrape
}

// RunResult is a completed scenario run.
type RunResult struct {
	Scenario *Scenario
	// Shards names the fleet's shards in index order.
	Shards []string
	// Pre is every source's scrape before any load: the first phase's
	// opening boundary.
	Pre    map[string]Scrape
	Phases []PhaseResult
}

// Run executes the scenario against the fleet: scrape a baseline, then
// for each phase apply the phase's faults, step probes, drive the load
// and scrape every shard plus the router. The fleet is NOT closed by
// Run; the caller owns its lifecycle.
func Run(ctx context.Context, fleet Fleet, sc *Scenario) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	res := &RunResult{Scenario: sc, Shards: fleet.ShardNames()}
	scrapeAll := func() map[string]Scrape {
		out := make(map[string]Scrape)
		add := func(source, baseURL string) {
			// A killed shard does not answer; its absence from the
			// boundary is itself the record of the kill.
			if s, err := scrape(fleet.Client(), baseURL); err == nil {
				out[source] = s
			}
		}
		for i, name := range res.Shards {
			add(name, fleet.ShardURL(i))
		}
		add(RouterSource, fleet.RouterURL())
		return out
	}
	res.Pre = scrapeAll()

	seedBase := sc.Seed
	if seedBase == 0 {
		seedBase = 1
	}
	for pi, p := range sc.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, f := range sc.FaultsAt(p.Name) {
			if err := fleet.ApplyFault(f); err != nil {
				return nil, fmt.Errorf("benchfleet: phase %q: apply %s on shard %d: %w", p.Name, f.Kind, f.Shard, err)
			}
		}
		fleet.AdvanceProbes(p.Probes)

		pr, err := drivePhase(ctx, fleet.Client(), fleet.RouterURL(), p, sc.BackendOrDefault(), seedBase+int64(pi))
		if err != nil {
			return nil, fmt.Errorf("benchfleet: phase %q: %w", p.Name, err)
		}
		pr.Scrapes = scrapeAll()
		res.Phases = append(res.Phases, pr)
	}
	return res, nil
}

// scrape fetches and totals one source's /metrics.
func scrape(client *http.Client, baseURL string) (Scrape, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("scrape %s: status %d", baseURL, resp.StatusCode)
	}
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	return metrics.Totals(fams), nil
}

// BackendOrDefault returns the scenario's parse backend ("serial" when
// unset — the cheapest engine, so fleet benchmarks measure the serving
// path rather than simulator throughput unless a scenario opts into
// one of the parallel backends).
func (sc *Scenario) BackendOrDefault() string {
	if sc.Backend == "" {
		return "serial"
	}
	return sc.Backend
}
