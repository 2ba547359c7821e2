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

	res, err := Run(context.Background(), fleet, sc)
	if err != nil {
		t.Fatal(err)
	}

	// A healthy fleet with failover loses zero requests through a kill
	// phase: every request got a 200 from some shard.
	for _, pr := range res.Phases {
		if n := pr.Lost(); n != 0 {
			t.Fatalf("phase %s lost %d of %d requests: %+v", pr.Name, n, len(pr.Requests), pr.Requests)
		}
	}

	// The kill was observed by the router: shard2 was ejected during
	// the kill phase (the ejection counter grew).
	if d, ok := res.Delta("parsecrouter_shard_ejections_total", RouterSource, "kill"); !ok || d < 1 {
		t.Fatalf("ejections during kill = %g,%v want >= 1", d, ok)
	}
	// No request was answered by the dead shard during the kill phase,
	// and the survivors both served some.
	if n := res.CountRequests("kill", "shard2", nil); n != 0 {
		t.Fatalf("killed shard answered %d requests during kill phase", n)
	}
	killP99 := map[string]int64{}
	for _, name := range []string{"shard0", "shard1"} {
		v, ok := res.Quantile("kill", name, 0.99)
		if !ok || v <= 0 {
			t.Fatalf("survivor %s p99 = %d,%v want > 0", name, v, ok)
		}
		killP99[name] = v
	}
	// The zipf mix repeats sentences, so the result cache saw hits.
	if hr, ok := res.HitRate("", "kill"); !ok || hr <= 0 {
		t.Fatalf("fleet hit rate during kill = %g,%v want > 0", hr, ok)
	}
	// Revived shard serves again in the recover phase.
	if n := res.CountRequests("recover", "shard2", nil); n == 0 {
		t.Fatal("revived shard2 served nothing in the recover phase")
	}
	// Every parse is one result-cache lookup at the shard that answered
	// it, so each shard's scrape deltas account for exactly its records
	// — shard2's in recover too, whose server kept its counters through
	// the kill.
	for _, p := range sc.Phases {
		for _, shard := range res.Shards {
			lookups := 0.0
			for _, fam := range []string{"parsecd_result_cache_hits_total", "parsecd_result_cache_misses_total", "parsecd_result_cache_coalesced_inflight_total"} {
				d, _ := res.Delta(fam, shard, p.Name)
				lookups += d
			}
			if n := res.CountRequests(p.Name, shard, nil); lookups != float64(n) {
				t.Errorf("phase %s %s: %g cache lookups for %d requests", p.Name, shard, lookups, n)
			}
		}
	}

	// The report reduces to the shared benchjson schema and validates
	// after a JSON round trip.
	rep, err := BuildReport(res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := benchjson.ValidateBytes(data)
	if err != nil {
		t.Fatalf("BENCH_cluster.json round trip: %v", err)
	}
	names := map[string]benchjson.Result{}
	for _, r := range rep2.Results {
		names[r.Name] = r
	}
	total, ok := names["Fleet/t3/total"]
	if !ok {
		t.Fatalf("no total row in %v", keysOf(names))
	}
	if total.Iterations != 120 || total.P50Ns <= 0 || total.P99Ns <= 0 {
		t.Fatalf("total row = %+v, want 120 iterations and p50, p99 > 0", total)
	}
	killRow, ok := names["Fleet/t3/phase=kill"]
	if !ok || killRow.Iterations != 48 {
		t.Fatalf("kill phase row = %+v,%v", killRow, ok)
	}
	// The per-(phase, shard) rows answer "p99 by shard during the kill
	// window" on their own.
	for _, shard := range []string{"shard0", "shard1"} {
		row, ok := names["Fleet/t3/phase=kill/shard="+shard]
		if !ok || row.Iterations <= 0 || row.P99Ns != float64(killP99[shard]) {
			t.Fatalf("kill row for %s = %+v,%v want iterations > 0 and p99 %d", shard, row, ok, killP99[shard])
		}
	}
	if _, ok := names["Fleet/t3/phase=kill/shard=shard2"]; ok {
		t.Fatal("dead shard should have no kill-phase row")
	}
	checkShardRowsSum(t, rep2, sc)
}

// checkShardRowsSum asserts that in every phase the per-shard rows'
// iterations add up to the phase's requests: every reply named the
// shard that served it.
func checkShardRowsSum(t *testing.T, rep *benchjson.Report, sc *Scenario) {
	t.Helper()
	for _, p := range sc.Phases {
		prefix := "Fleet/" + sc.Name + "/phase=" + p.Name
		var phase, shards int64
		for _, r := range rep.Results {
			switch {
			case r.Name == prefix:
				phase = r.Iterations
			case strings.HasPrefix(r.Name, prefix+"/shard="):
				shards += r.Iterations
			}
		}
		if phase != int64(p.Requests) || shards != phase {
			t.Errorf("phase %s: row iterations %d, shard rows sum %d, want %d each", p.Name, phase, shards, p.Requests)
		}
	}
}

// placeKeys bounds the kill and recover phases' sentence lengths so
// that both survivors own a kill-phase key and the revived shard owns
// a recover-phase key (see placePhase).
func placeKeys(t *testing.T, sc *Scenario, fleet *HarnessFleet) {
	t.Helper()
	urls := shardURLs(fleet)
	placePhase(t, sc, 1, urls[:2], urls[0], urls[1]) // shard2 is dead through the kill phase
	placePhase(t, sc, 2, urls, urls[2])              // and serves again in the recover phase
}

// shardURLs lists the fleet's shard URLs, the names the router ranks.
func shardURLs(fleet *HarnessFleet) []string {
	var urls []string
	for _, sh := range fleet.Cluster().Shards {
		urls = append(urls, sh.URL)
	}
	return urls
}

// placePhase bounds phase pi's sentence length so that each of owners
// ranks first among eligible for at least one of its keys. Demo
// sentences depend on length only, so a phase's keys are at most
// MaxLen distinct sentences, and the router places each by its HRW
// ranking of the shard URLs, which are random loopback ports: with the
// default bound of 7, some runs leave a checked shard with no key. The
// ranking is the router's own.
func placePhase(t *testing.T, sc *Scenario, pi int, eligible []string, owners ...string) {
	t.Helper()
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
			key, err := server.CacheKey(req)
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
	t.Fatalf("phase %s: no length bound up to 40 gives every checked shard a key", p.Name)
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
	urls := shardURLs(fleet)
	placePhase(t, sc, 0, urls, urls[0]) // the delayed shard owns a slow-phase key

	res, err := Run(context.Background(), fleet, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Phases {
		if n := pr.Lost(); n != 0 {
			t.Fatalf("phase %s lost %d requests", pr.Name, n)
		}
	}
	if fleet.Cluster().Shards[0].DelayHits() == 0 {
		t.Fatal("delay fault never engaged")
	}
	// Delayed shard's slow-phase p99 carries at least the 20ms stall.
	if v, ok := res.Quantile("slow", "shard0", 0.99); !ok || v < 20*1e6 {
		t.Fatalf("delayed shard p99 = %dns,%v want >= 20ms", v, ok)
	}
}

// TestRunEveryGrammarInProcess: a phase over the ww and dyck grammars
// sends each grammar its own sentences (workload.SentenceFor), so a
// healthy fleet answers all of them.
func TestRunEveryGrammarInProcess(t *testing.T) {
	sc := &Scenario{
		Name:   "tgrammars",
		Shards: 2,
		Phases: []Phase{{Name: "mixed", Requests: 20, Concurrency: 4, Mix: "uniform", Grammars: []string{"ww", "dyck"}}},
	}
	fleet, err := NewHarnessFleet(sc, server.Config{}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck
	res, err := Run(context.Background(), fleet, sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Phases[0].Lost(); n != 0 {
		t.Fatalf("lost %d of 20 ww/dyck requests: %+v", n, res.Phases[0].Requests)
	}
}

// TestRunRejectsInvalidScenario: Run validates before touching the
// fleet.
func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := killScenario()
	sc.Phases[0].Requests = 0
	if _, err := Run(context.Background(), nil, sc); err == nil ||
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
	if _, err := Run(ctx, fleet, sc); err == nil {
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
