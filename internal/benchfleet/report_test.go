package benchfleet

import (
	"reflect"
	"testing"
)

// fixtureRun hand-builds a run record: two shards, a pre baseline, a
// warm phase, a kill phase (s1 dark: absent from the closing scrape),
// and a recover phase where s1 is back as a new process with its
// counters reset. Every expected value below is hand-computed from
// these numbers.
func fixtureRun() *RunResult {
	const (
		reqs   = "parsecd_requests_total"
		hits   = "parsecd_result_cache_hits_total"
		misses = "parsecd_result_cache_misses_total"
		fo     = "parsecrouter_failovers_total"
	)
	// Per-request records during the kill phase (latencies in ms): s0
	// saw 10,20,30,40,50; s1 saw 100,200 (answered before the kill
	// took); one unattributed transport error at 999.
	var kill []Request
	for _, ms := range []int64{10, 20, 30, 40, 50} {
		kill = append(kill, Request{Shard: "s0", Status: 200, LatNs: ms * 1e6})
	}
	kill = append(kill,
		Request{Shard: "s1", Status: 200, LatNs: 100 * 1e6},
		Request{Shard: "s1", Status: 200, LatNs: 200 * 1e6},
		Request{Status: 0, LatNs: 999 * 1e6})
	return &RunResult{
		Scenario: &Scenario{Name: "fixture"},
		Shards:   []string{"s0", "s1"},
		Pre: map[string]Scrape{
			"s0":         {reqs: 100, hits: 0, misses: 0},
			"s1":         {reqs: 50, hits: 0, misses: 0},
			RouterSource: {fo: 2},
		},
		Phases: []PhaseResult{
			{Name: "warm", Scrapes: map[string]Scrape{
				"s0":         {reqs: 140, hits: 30, misses: 10}, // +40
				"s1":         {reqs: 80, hits: 0, misses: 10},   // +30
				RouterSource: {fo: 2},
			}},
			// s0 keeps counting, s1 is dark, the router fails over 5 times.
			{Name: "kill", Requests: kill, Scrapes: map[string]Scrape{
				"s0":         {reqs: 190}, // +50
				RouterSource: {fo: 7},
			}},
			// s1 is back, restarted: its counter starts over at 5.
			{Name: "recover", Scrapes: map[string]Scrape{
				"s0": {reqs: 230}, // +40
				"s1": {reqs: 5},
			}},
		},
	}
}

// TestQuantileByShardDuringKillWindow pins "p99 by shard during the
// kill window" against hand-computed values. The quantile index rule is
// sorted[max(int(p*n)-1, 0)] (metrics.Quantile): s0 has n=5 → index 3 →
// 40ms; s1 has n=2 → index 0 → 100ms.
func TestQuantileByShardDuringKillWindow(t *testing.T) {
	res := fixtureRun()
	for shard, want := range map[string]int64{"s0": 40 * 1e6, "s1": 100 * 1e6} {
		if v, ok := res.Quantile("kill", shard, 0.99); !ok || v != want {
			t.Fatalf("Quantile(kill, %s, .99) = %d,%v want %d", shard, v, ok, want)
		}
	}

	// Whole-phase p99 over all 8 records: sorted index int(0.99*8)-1 =
	// 6 → 200ms. p50: index int(0.5*8)-1 = 3 → 40ms.
	if v, ok := res.Quantile("kill", "", 0.99); !ok || v != 200*1e6 {
		t.Fatalf("Quantile(kill, .99) = %d,%v want 200ms", v, ok)
	}
	if v, ok := res.Quantile("kill", "", 0.50); !ok || v != 40*1e6 {
		t.Fatalf("Quantile(kill, .50) = %d,%v want 40ms", v, ok)
	}
	// No records outside the kill phase.
	if _, ok := res.Quantile("warm", "", 0.99); ok {
		t.Fatal("warm phase should have no request records")
	}
}

func TestCountRequests(t *testing.T) {
	res := fixtureRun()
	if n := res.CountRequests("kill", "", nil); n != 8 {
		t.Fatalf("all records = %d, want 8", n)
	}
	okOnly := func(s int) bool { return s == 200 }
	if n := res.CountRequests("kill", "", okOnly); n != 7 {
		t.Fatalf("200s = %d, want 7", n)
	}
	if n := res.CountRequests("kill", "s1", okOnly); n != 2 {
		t.Fatalf("s1 200s = %d, want 2", n)
	}
	if n := res.Phases[1].Lost(); n != 1 {
		t.Fatalf("kill phase lost %d, want 1 (the transport error)", n)
	}
}

func TestDeltaAndSumDelta(t *testing.T) {
	res := fixtureRun()

	// Warm-phase growth against the pre baseline.
	if d, ok := res.Delta("parsecd_requests_total", "s0", "warm"); !ok || d != 40 {
		t.Fatalf("warm s0 delta = %g,%v want 40", d, ok)
	}
	if d, ok := res.SumDelta("parsecd_requests_total", "warm"); !ok || d != 70 {
		t.Fatalf("warm fleet delta = %g,%v want 70", d, ok)
	}
	// Kill phase: s1 was never scraped → no delta; the router's
	// failover counter grew by 5.
	if _, ok := res.Delta("parsecd_requests_total", "s1", "kill"); ok {
		t.Fatal("dark shard should have no kill-phase delta")
	}
	if d, ok := res.Delta("parsecrouter_failovers_total", RouterSource, "kill"); !ok || d != 5 {
		t.Fatalf("kill failovers delta = %g,%v want 5", d, ok)
	}
	// Recover phase: s1 was absent at the opening boundary, so the new
	// process counts from zero: 5, not a clamp to 0 against 80.
	if d, ok := res.Delta("parsecd_requests_total", "s1", "recover"); !ok || d != 5 {
		t.Fatalf("revived s1 delta = %g,%v want 5", d, ok)
	}
	// The whole run sums its phases, from the pre baseline: s0 grew
	// 40+50+40; s1 grew 30 in warm and 5 after its restart.
	if d, ok := res.Delta("parsecd_requests_total", "s0", ""); !ok || d != 130 {
		t.Fatalf("whole-run s0 delta = %g,%v want 130", d, ok)
	}
	if d, ok := res.SumDelta("parsecd_requests_total", ""); !ok || d != 165 {
		t.Fatalf("whole-run fleet delta = %g,%v want 165", d, ok)
	}
}

// TestDeltaCountsRevivedShardFromZero pins the delta rule across a
// restart on the record of a real kill: shard2 served 9 requests in
// warm (7 hits, 2 misses), was SIGKILLed at the kill boundary (absent
// from that scrape), and its relaunched process counted 87 requests,
// 77 hits and 2 misses in recover. Measured against the last value the
// dead process reported, the recover delta would read 77 served at a
// hit rate of 1.0; the revived process counts from zero. The router
// restarted unseen between two boundaries: a closing value below the
// baseline counts whole, not as 0.
func TestDeltaCountsRevivedShardFromZero(t *testing.T) {
	const (
		reqs   = "parsecd_requests_total"
		hits   = "parsecd_result_cache_hits_total"
		misses = "parsecd_result_cache_misses_total"
		fo     = "parsecrouter_failovers_total"
	)
	res := &RunResult{
		Scenario: &Scenario{Name: "restart"},
		Shards:   []string{"shard2"},
		Pre:      map[string]Scrape{"shard2": {reqs: 1, hits: 0, misses: 0}, RouterSource: {fo: 0}},
		Phases: []PhaseResult{
			{Name: "warm", Scrapes: map[string]Scrape{"shard2": {reqs: 10, hits: 7, misses: 2}, RouterSource: {fo: 9}}},
			{Name: "kill", Scrapes: map[string]Scrape{RouterSource: {fo: 4}}},
			{Name: "recover", Scrapes: map[string]Scrape{"shard2": {reqs: 87, hits: 77, misses: 2}, RouterSource: {fo: 6}}},
		},
	}
	if d, ok := res.Delta(reqs, "shard2", "recover"); !ok || d != 87 {
		t.Fatalf("revived shard2 served %g,%v in recover, want 87", d, ok)
	}
	if hr, ok := res.HitRate("shard2", "recover"); !ok || hr != 77.0/79 {
		t.Fatalf("revived shard2 hit rate = %g,%v want 77/79", hr, ok)
	}
	if d, ok := res.Delta(reqs, "shard2", ""); !ok || d != 96 {
		t.Fatalf("whole-run shard2 delta = %g,%v want 9+87", d, ok)
	}
	if d, ok := res.Delta(fo, RouterSource, "kill"); !ok || d != 4 {
		t.Fatalf("router failovers across its reset = %g,%v want 4", d, ok)
	}
	if d, ok := res.Delta(fo, RouterSource, ""); !ok || d != 15 {
		t.Fatalf("whole-run router failovers = %g,%v want 9+4+2", d, ok)
	}
}

func TestHitRate(t *testing.T) {
	res := fixtureRun()
	// Warm phase: s0 30 hits / 10 misses → 0.75; fleet 30/(30+20) → 0.6.
	if hr, ok := res.HitRate("s0", "warm"); !ok || hr != 0.75 {
		t.Fatalf("s0 warm hit rate = %g,%v want 0.75", hr, ok)
	}
	if hr, ok := res.HitRate("", "warm"); !ok || hr != 0.6 {
		t.Fatalf("fleet warm hit rate = %g,%v want 0.6", hr, ok)
	}
	// Recover phase saw no lookups at all.
	if _, ok := res.HitRate("s0", "recover"); ok {
		t.Fatal("recover phase should report no hit rate")
	}
}

// TestRecordRequestUnknownShard: a reply naming a shard outside the
// fleet counts toward its phase but matches no fleet shard, so the
// report gives it no row.
func TestRecordRequestUnknownShard(t *testing.T) {
	res := &RunResult{
		Scenario: &Scenario{Name: "ghost"},
		Shards:   []string{"s0"},
		Phases: []PhaseResult{{Name: "p", ElapsedNs: 1, Requests: []Request{
			{Shard: "ghost", Status: 200, LatNs: 1},
			{Shard: "s0", Status: 200, LatNs: 2},
		}}},
	}
	if n := res.CountRequests("p", "", nil); n != 2 {
		t.Fatalf("total records = %d, want 2", n)
	}
	if n := res.CountRequests("p", "s0", nil); n != 1 {
		t.Fatalf("s0 records = %d, want 1", n)
	}
	rep, err := BuildReport(res)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rep.Results {
		names = append(names, r.Name)
	}
	want := []string{"Fleet/ghost/total", "Fleet/ghost/phase=p", "Fleet/ghost/phase=p/shard=s0"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("report rows = %v, want %v", names, want)
	}
}
