package benchfleet

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/benchjson"
	"repro/internal/router"
	"repro/internal/server"
)

// killScenario is the canonical 3-shard kill scenario the tier-1
// orchestrator test runs: shard2 is killed at the kill phase's start
// boundary, probes advance synchronously past EjectAfter, and the load
// keeps flowing through the survivors.
func killScenario() *Scenario {
	return &Scenario{
		Name:   "t3",
		Shards: 3,
		Seed:   11,
		Phases: []Phase{
			{Name: "warm", Requests: 36, Concurrency: 4, Mix: "zipf", ZipfS: 1.3, ZipfPool: 12},
			{Name: "kill", Requests: 48, Concurrency: 4, Mix: "zipf", ZipfS: 1.3, ZipfPool: 12, Probes: 4},
			{Name: "recover", Requests: 36, Concurrency: 4, Mix: "uniform", Probes: 3},
		},
		Faults: []Fault{
			{Kind: FaultKill, Shard: 2, Phase: "kill"},
			{Kind: FaultRevive, Shard: 2, Phase: "recover"},
		},
	}
}

// TestRunKillScenarioInProcess is the tentpole tier-1 test: the full
// orchestrator loop on the in-process harness — boot, phased load,
// kill -9 equivalent at a phase boundary, deterministic probe
// advancement, scrape, report. No child processes, no sleeps; probes
// advance only via AdvanceProbes.
func TestRunKillScenarioInProcess(t *testing.T) {
	sc := killScenario()
	fleet, err := NewHarnessFleet(sc, server.Config{}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck
	placeKeys(t, sc, fleet)

	res, err := Run(context.Background(), fleet, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A healthy fleet with failover loses zero requests through a kill
	// phase: every request got a 200 from some shard.
	for _, pr := range res.Phases {
		if pr.Lost != 0 || pr.Errors != 0 {
			t.Fatalf("phase %s lost %d (errors %d) of %d requests: %+v", pr.Name, pr.Lost, pr.Errors, pr.Requests, pr.ByStatus)
		}
	}

	st := res.Store
	// The kill was observed by the router: shard2 was ejected during
	// the kill phase (the ejection counter grew).
	if d, ok := st.Delta("parsecrouter_shard_ejections_total", RouterSource, Query{Phase: "kill"}); !ok || d < 1 {
		t.Fatalf("ejections during kill = %g,%v want >= 1", d, ok)
	}
	// No request was answered by the dead shard during the kill phase,
	// and the survivors both served some.
	byShard := st.QuantileByShard("kill", 0.99)
	if _, ok := byShard["shard2"]; ok {
		t.Fatalf("killed shard answered requests during kill phase: %v", byShard)
	}
	for _, name := range []string{"shard0", "shard1"} {
		if v, ok := byShard[name]; !ok || v <= 0 {
			t.Fatalf("survivor %s p99 = %d,%v want > 0 (byShard=%v)", name, v, ok, byShard)
		}
	}
	// The zipf mix repeats sentences, so the result cache saw hits.
	if hr, ok := st.HitRate("", Query{Phase: "kill"}); !ok || hr <= 0 {
		t.Fatalf("fleet hit rate during kill = %g,%v want > 0", hr, ok)
	}
	// Revived shard serves again in the recover phase.
	if n := st.CountRequests(Query{Phase: "recover", Shard: "shard2"}, nil); n == 0 {
		t.Fatal("revived shard2 served nothing in the recover phase")
	}

	// The report reduces to the shared benchjson schema and validates.
	rep, err := BuildReport(res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	rep2, st2, err := LoadReport(data)
	if err != nil {
		t.Fatalf("BENCH_cluster.json round trip: %v", err)
	}
	if st2 == nil {
		t.Fatal("report lost its samples payload")
	}
	names := map[string]benchjson.Result{}
	for _, r := range rep2.Results {
		names[r.Name] = r
	}
	total, ok := names["Fleet/t3/total"]
	if !ok {
		t.Fatalf("no total row in %v", keysOf(names))
	}
	if total.Iterations != 120 || total.P99Ns <= 0 {
		t.Fatalf("total row = %+v, want 120 iterations and p99 > 0", total)
	}
	killRow, ok := names["Fleet/t3/phase=kill"]
	if !ok || killRow.Iterations != 48 {
		t.Fatalf("kill phase row = %+v,%v", killRow, ok)
	}
	for _, name := range []string{"Fleet/t3/phase=kill/shard=shard0", "Fleet/t3/phase=kill/shard=shard1"} {
		row, ok := names[name]
		if !ok || row.Iterations <= 0 || row.P99Ns <= 0 {
			t.Fatalf("per-shard row %s = %+v,%v want iterations and p99 > 0", name, row, ok)
		}
	}
	if _, ok := names["Fleet/t3/phase=kill/shard=shard2"]; ok {
		t.Fatal("dead shard should have no kill-phase row")
	}
	// The re-hydrated store still answers the tentpole query.
	if got := st2.QuantileByShard("kill", 0.99); len(got) != 2 {
		t.Fatalf("round-tripped kill p99 by shard = %v", got)
	}
}

// placeKeys bounds the kill and recover phases' sentence lengths so
// that both survivors own a kill-phase key and the revived shard owns
// a recover-phase key. Demo sentences depend on length only, so a
// phase's keys are at most MaxLen distinct sentences, and the router
// places each by its HRW ranking of the shard URLs, which are random
// loopback ports: with the default bound of 7, some runs leave a
// checked shard with no key. The ranking is the router's own.
func placeKeys(t *testing.T, sc *Scenario, fleet *HarnessFleet) {
	t.Helper()
	var urls []string
	for i := 0; i < sc.Shards; i++ {
		urls = append(urls, fleet.ShardURL(i))
	}
	place := func(pi int, eligible []string, owners ...string) {
		p := &sc.Phases[pi]
		for maxLen := 7; maxLen <= 40; maxLen++ {
			p.MaxLen = maxLen
			// Phase pi runs on seed Seed+pi.
			bodies, err := buildRequests(*p, sc.BackendOrDefault(), sc.Seed+int64(pi))
			if err != nil {
				t.Fatal(err)
			}
			owned := map[string]bool{}
			for _, body := range bodies {
				var req server.ParseRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Fatal(err)
				}
				key, err := router.AffinityKey(req)
				if err != nil {
					t.Fatal(err)
				}
				owned[router.RankShards(eligible, key)[0]] = true
			}
			missing := false
			for _, u := range owners {
				missing = missing || !owned[u]
			}
			if !missing {
				return
			}
		}
		t.Fatalf("phase %s: no length bound up to 40 gives every checked shard a key", sc.Phases[pi].Name)
	}
	place(1, urls[:2], urls[0], urls[1]) // shard2 is dead through the kill phase
	place(2, urls, urls[2])              // and serves again in the recover phase
}

// TestRunDelayScenarioInProcess exercises the delay/clear-delay fault
// pair: a delayed shard stalls /v1/* but stays live, so nothing is
// lost and the stall shows up in that shard's latency tail.
func TestRunDelayScenarioInProcess(t *testing.T) {
	sc := &Scenario{
		Name:   "tdelay",
		Shards: 2,
		Phases: []Phase{
			{Name: "slow", Requests: 24, Concurrency: 4, Mix: "uniform"},
			{Name: "clear", Requests: 12, Concurrency: 4, Mix: "uniform"},
		},
		Faults: []Fault{
			{Kind: FaultDelay, Shard: 0, Phase: "slow", DelayMS: 20},
			{Kind: FaultClearDelay, Shard: 0, Phase: "clear"},
		},
	}
	fleet, err := NewHarnessFleet(sc, server.Config{}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck

	res, err := Run(context.Background(), fleet, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Phases {
		if pr.Lost != 0 {
			t.Fatalf("phase %s lost %d requests", pr.Name, pr.Lost)
		}
	}
	if fleet.Cluster().Shards[0].DelayHits() == 0 {
		t.Fatal("delay fault never engaged")
	}
	// Delayed shard's slow-phase p99 carries at least the 20ms stall.
	if v, ok := res.Store.Quantile(Query{Phase: "slow", Shard: "shard0"}, 0.99); ok && v < 20*1e6 {
		t.Fatalf("delayed shard p99 = %dns, want >= 20ms", v)
	}
}

// TestRunRejectsInvalidScenario: Run validates before touching the
// fleet.
func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := killScenario()
	sc.Phases[0].Requests = 0
	if _, err := Run(context.Background(), nil, sc, Options{}); err == nil ||
		!strings.Contains(err.Error(), "requests must be >= 1") {
		t.Fatalf("Run on invalid scenario: %v", err)
	}
}

// TestRunHonorsContext: a cancelled context stops the run between
// phases.
func TestRunHonorsContext(t *testing.T) {
	sc := killScenario()
	fleet, err := NewHarnessFleet(sc, server.Config{}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, fleet, sc, Options{}); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
}

func keysOf(m map[string]benchjson.Result) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
