package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// sentences returns n distinct demo-grammar sentences (every word in
// the demo lexicon, so shards answer 200 regardless of acceptance).
func sentences(n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = workload.DemoSentence(1 + i%7)
		// Distinct lengths only give 7 distinct sentences; vary by
		// repetition to get arbitrarily many distinct keys.
		for j := 0; j < i/7; j++ {
			out[i] = append(append([]string{}, out[i]...), workload.DemoSentence(1)...)
		}
	}
	return out
}

func serialReq(words []string) server.ParseRequest {
	return server.ParseRequest{Backend: "serial", Sentence: words, MaxParses: 1}
}

// TestRoutingDeterministicForFixedFleet replays a key set twice against
// a fixed fleet and checks every key lands on the same shard both
// times, and that the keys actually spread across the fleet.
func TestRoutingDeterministicForFixedFleet(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	sents := sentences(24)
	first := make(map[string]string)
	used := make(map[string]bool)
	for _, s := range sents {
		status, _, shard := c.Parse(t, serialReq(s))
		if status != http.StatusOK {
			t.Fatalf("status %d for %v", status, s)
		}
		if shard == "" {
			t.Fatal("response missing shard attribution")
		}
		first[strings.Join(s, " ")] = shard
		used[shard] = true
	}
	if len(used) < 2 {
		t.Errorf("24 keys all landed on one shard: %v", used)
	}
	for _, s := range sents {
		_, _, shard := c.Parse(t, serialReq(s))
		if want := first[strings.Join(s, " ")]; shard != want {
			t.Errorf("key %v moved: %s then %s", s, want, shard)
		}
	}
}

// TestSameSentenceAffinityHitsCache checks the point of rendezvous
// placement: a repeated sentence returns to the same shard and is
// served from that shard's result cache.
func TestSameSentenceAffinityHitsCache(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	req := serialReq(workload.DemoSentence(3))
	status, res, shard1 := c.Parse(t, req)
	if status != http.StatusOK || res.Cached {
		t.Fatalf("first parse: status %d cached %v", status, res.Cached)
	}
	status, res, shard2 := c.Parse(t, req)
	if status != http.StatusOK {
		t.Fatalf("second parse: status %d", status)
	}
	if shard1 != shard2 {
		t.Fatalf("affinity broken: %s then %s", shard1, shard2)
	}
	if !res.Cached {
		t.Errorf("second identical parse not served from the shard's result cache")
	}
}

// TestKilledShardEjectedAndKeysFailOver kills the shard owning a key:
// before any probe the router must fail over within the request; after
// EjectAfter probe rounds the shard must be ejected and stop being a
// candidate.
func TestKilledShardEjectedAndKeysFailOver(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{EjectAfter: 2})
	req := serialReq(workload.DemoSentence(4))
	status, _, owner := c.Parse(t, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	victim := c.shardByName(t, owner)
	victim.Kill()

	// In-flight failover, before membership notices.
	status, _, shard := c.Parse(t, req)
	if status != http.StatusOK {
		t.Fatalf("failover parse: status %d", status)
	}
	if shard == owner {
		t.Fatalf("dead shard %s answered", owner)
	}
	if st := c.Router.Stats(); st.Failovers == 0 {
		t.Error("failover not counted")
	}

	// Membership ejection after consecutive probe failures.
	c.AdvanceProbes(1)
	if got := c.stateOf(t, victim.URL); got != router.StateLive {
		t.Fatalf("one failed probe already changed state to %v", got)
	}
	c.AdvanceProbes(1)
	if got := c.stateOf(t, victim.URL); got != router.StateEjected {
		t.Fatalf("after EjectAfter probes: state %v, want ejected", got)
	}

	// The key now routes directly to its second choice — no failover
	// attempt against the dead shard.
	before := c.Router.Stats().Failovers
	status, _, shard = c.Parse(t, req)
	if status != http.StatusOK || shard == owner {
		t.Fatalf("post-ejection: status %d shard %s", status, shard)
	}
	if after := c.Router.Stats().Failovers; after != before {
		t.Errorf("ejected shard still being tried: failovers %d -> %d", before, after)
	}
}

// TestRevivedShardReadmittedThroughProbation revives a dead shard and
// walks it through probation back to live, checking its keys return.
func TestRevivedShardReadmittedThroughProbation(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{EjectAfter: 2, ReadmitAfter: 2})
	req := serialReq(workload.DemoSentence(5))
	_, _, owner := c.Parse(t, req)
	victim := c.shardByName(t, owner)

	victim.Kill()
	c.AdvanceProbes(2)
	if got := c.stateOf(t, victim.URL); got != router.StateEjected {
		t.Fatalf("state %v, want ejected", got)
	}

	victim.Revive()
	c.AdvanceProbes(1)
	if got := c.stateOf(t, victim.URL); got != router.StateProbation {
		t.Fatalf("first good probe: state %v, want probation", got)
	}
	// Probation shards already receive traffic: the key comes home.
	status, _, shard := c.Parse(t, req)
	if status != http.StatusOK || shard != owner {
		t.Fatalf("probation routing: status %d shard %s, want %s", status, shard, owner)
	}
	c.AdvanceProbes(1)
	if got := c.stateOf(t, victim.URL); got != router.StateLive {
		t.Fatalf("after ReadmitAfter probes: state %v, want live", got)
	}
}

// TestProbationFailureReEjects: one bad probe during probation sends
// the shard straight back to ejected.
func TestProbationFailureReEjects(t *testing.T) {
	c := New(t, 2, server.Config{}, router.Config{EjectAfter: 1, ReadmitAfter: 3})
	victim := c.Shards[0]
	victim.Kill()
	c.AdvanceProbes(1)
	victim.Revive()
	c.AdvanceProbes(1)
	if got := c.stateOf(t, victim.URL); got != router.StateProbation {
		t.Fatalf("state %v, want probation", got)
	}
	victim.Kill()
	c.AdvanceProbes(1)
	if got := c.stateOf(t, victim.URL); got != router.StateEjected {
		t.Fatalf("state %v, want ejected after probation failure", got)
	}
}

// TestBatchShardsAndMergesInOrder pushes one batch through the router
// and checks results come back aligned with the request order while
// the work spread across shards.
func TestBatchShardsAndMergesInOrder(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	sents := sentences(18)
	breq := server.BatchRequest{}
	for _, s := range sents {
		breq.Requests = append(breq.Requests, serialReq(s))
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(c.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var bres server.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&bres); err != nil {
		t.Fatal(err)
	}
	if len(bres.Results) != len(sents) {
		t.Fatalf("got %d results for %d requests", len(bres.Results), len(sents))
	}
	for i, res := range bres.Results {
		if want := strings.Join(sents[i], " "); strings.Join(res.Sentence, " ") != want {
			t.Errorf("result %d misaligned: got %v want %v", i, res.Sentence, sents[i])
		}
		if res.Error != "" {
			t.Errorf("result %d error: %s", i, res.Error)
		}
	}
	shardsHit := 0
	for _, sh := range c.Shards {
		if sh.BatchHits() > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Errorf("batch did not shard: %d shards hit", shardsHit)
	}
}

// TestBatchSplicedBodyMatchesEncoder: the router splices each shard's
// encoded batch entries into one answer without re-encoding them, and
// that answer — a hit, a leader, a duplicate coalesced onto it, a
// no_cache entry, a 400 entry and distinct sentences spread over both
// shards — is byte for byte what json.Encoder writes for the
// BatchResult it decodes to.
func TestBatchSplicedBodyMatchesEncoder(t *testing.T) {
	c := New(t, 2, server.Config{}, router.Config{})
	hit := server.ParseRequest{Grammar: "english", Backend: "serial", Text: "the dog slept"}
	if status, _, _ := c.Parse(t, hit); status != http.StatusOK {
		t.Fatalf("priming the hit: status %d", status)
	}
	lead := server.ParseRequest{Grammar: "english", Backend: "serial", Text: "the man saw the dog"}
	bypass := hit
	bypass.NoCache = true
	bad := server.ParseRequest{Grammar: "english", Backend: "serial", Text: "the zebra slept"}
	breq := server.BatchRequest{Requests: []server.ParseRequest{hit, lead, lead, bypass, bad}}
	for _, s := range sentences(16) {
		breq.Requests = append(breq.Requests, serialReq(s))
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(c.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var bres server.BatchResult
	if err := json.Unmarshal(data, &bres); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(bres); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("batch body is not json.Encoder's encoding:\n got: %s\nwant: %s", data, want.Bytes())
	}
	if r := bres.Results; !r[0].Cached || r[1].Cached || !r[2].Cached || r[3].Cached || r[4].Error == "" {
		t.Errorf("entries 0-4 do not read hit, leader, coalesced follower, no_cache, 400: %+v", r[:5])
	}
	for i, sh := range c.Shards {
		if sh.BatchHits() == 0 {
			t.Errorf("shard %d took no sub-batch; the splice merged one shard's entries only", i)
		}
	}
}

// TestBatchReplyOverOneMiB: a batch answer may be far larger than the
// 1 MiB request bound. 500 english entries (a ~44 KB request) answer
// with more than 1 MiB of compact JSON, and every entry must come back
// through a one-shard router as the shard sent it, not as a "bad batch
// response" error.
func TestBatchReplyOverOneMiB(t *testing.T) {
	c := New(t, 1, server.Config{}, router.Config{})
	breq := server.BatchRequest{}
	for _, backend := range []string{"serial", "pram"} {
		for i := 0; i < 250; i++ {
			breq.Requests = append(breq.Requests, server.ParseRequest{
				Grammar: "english", Backend: backend, Text: "the dog saw the man with the telescope",
			})
		}
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(c.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var bres server.BatchResult
	if err := json.Unmarshal(data, &bres); err != nil {
		t.Fatal(err)
	}
	if len(bres.Results) != len(breq.Requests) {
		t.Fatalf("got %d results for %d requests", len(bres.Results), len(breq.Requests))
	}
	for i, res := range bres.Results {
		if res.Error != "" || !res.Accepted {
			t.Fatalf("result %d: error %q accepted %v", i, res.Error, res.Accepted)
		}
	}
	if len(data) <= 1<<20 {
		t.Fatalf("batch reply is %d bytes; the case needs more than 1 MiB", len(data))
	}
}

// TestGrammarsFanOutDeterministicMerge: the merged inventory is sorted,
// contains the built-ins, and is byte-stable call to call.
func TestGrammarsFanOutDeterministicMerge(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	// Warm different grammars on different shards so the merge really
	// unions distinct views.
	c.Parse(t, server.ParseRequest{Backend: "serial", Grammar: "demo", Sentence: workload.DemoSentence(2)})
	c.Parse(t, server.ParseRequest{Backend: "serial", Grammar: "english", Sentence: workload.EnglishSentence(4)})

	status, body1 := Get(t, c.URL+"/v1/grammars")
	if status != http.StatusOK {
		t.Fatalf("grammars status %d", status)
	}
	_, body2 := Get(t, c.URL+"/v1/grammars")
	if body1 != body2 {
		t.Errorf("merged /v1/grammars not byte-stable:\n%s\n---\n%s", body1, body2)
	}
	var parsed struct {
		Grammars []struct {
			Key    string `json:"key"`
			Cached bool   `json:"cached"`
		} `json:"grammars"`
	}
	if err := json.Unmarshal([]byte(body1), &parsed); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(parsed.Grammars))
	cached := make(map[string]bool)
	for _, g := range parsed.Grammars {
		keys = append(keys, g.Key)
		cached[g.Key] = g.Cached
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not strictly sorted: %v", keys)
		}
	}
	for _, want := range []string{"demo", "english"} {
		if !cached[want] {
			t.Errorf("grammar %q should be cached somewhere in the fleet: %v", want, cached)
		}
	}
}

// TestMetricsAggregationSumsMatchPerShardScrapes drives traffic, then
// checks the router's summed parsecd_* families equal the sum of
// individual shard scrapes, and that parsecrouter_* series are there.
func TestMetricsAggregationSumsMatchPerShardScrapes(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	for _, s := range sentences(15) {
		if status, _, _ := c.Parse(t, serialReq(s)); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	// Parse-path counters only: scraping a shard's /metrics is itself a
	// request, so HTTP-status families drift between the per-shard and
	// aggregate scrapes; the parse counters are quiescent.
	keys := []string{
		"parsecd_parses_total",
		"parsecd_result_cache_misses_total",
		"parsecd_parse_latency_seconds_count",
	}
	want := make(map[string]float64)
	for _, sh := range c.Shards {
		_, body := Get(t, sh.URL+"/metrics")
		shard := totals(t, body)
		for _, k := range keys {
			want[k] += shard[k]
		}
	}
	_, routerBody := Get(t, c.URL+"/metrics")
	got := totals(t, routerBody)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("aggregated %s = %g, per-shard sum = %g", k, got[k], want[k])
		}
	}
	if got["parsecd_parses_total"] != 15 {
		t.Errorf("fleet executed %g parses, want 15", got["parsecd_parses_total"])
	}
	for _, series := range []string{
		"parsecrouter_shard_requests_total",
		"parsecrouter_failovers_total",
		"parsecrouter_probes_total",
		"parsecrouter_shard_eligible",
	} {
		if !strings.Contains(routerBody, series) {
			t.Errorf("router exposition missing %s", series)
		}
	}
	// Gauge families cross the aggregation as max-across-shards under a
	// _max-suffixed name — never summed under the raw name. (Names are
	// assembled by concatenation so the metricflow reference scan keeps
	// pointing at the real per-shard family.)
	if strings.Contains(routerBody, "parsecd_uptime_seconds"+" ") {
		t.Error("gauge parsecd_uptime_seconds must not be summed across shards")
	}
	maxSeries := "parsecd_uptime_seconds" + "_max"
	if !strings.Contains(routerBody, maxSeries+" ") {
		t.Errorf("router exposition missing gauge max series %s", maxSeries)
	}
	uptimeMax := got[maxSeries]
	var shardMax float64
	for _, sh := range c.Shards {
		_, body := Get(t, sh.URL+"/metrics")
		if v := totals(t, body)["parsecd_uptime_seconds"]; v > shardMax {
			shardMax = v
		}
	}
	// The router scraped slightly earlier than we did, so its max can
	// only be at or below what the shards report now; it must still be
	// a positive uptime.
	if uptimeMax <= 0 || uptimeMax > shardMax {
		t.Errorf("gauge max %g out of range (0, %g]", uptimeMax, shardMax)
	}
}

// totals reads a Prometheus text body into per-name totals.
func totals(t testing.TB, body string) map[string]float64 {
	t.Helper()
	fams, err := metrics.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return metrics.Totals(fams)
}

// Test4xxNeverFailsOverNorPollutesCaches is the regression test for
// the retry policy: a 4xx is the request's own fault — it must surface
// from the first shard, not be retried, and not leave result-cache
// state anywhere.
func Test4xxNeverFailsOverNorPollutesCaches(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	before := c.Router.Stats()
	req := server.ParseRequest{Grammar: "no-such-grammar", Backend: "serial", Text: "the program runs"}
	body, _ := json.Marshal(req)
	resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown grammar: status %d, want 404", resp.StatusCode)
	}
	after := c.Router.Stats()
	if after.Failovers != before.Failovers {
		t.Errorf("4xx was failed over: failovers %d -> %d", before.Failovers, after.Failovers)
	}
	var hits int64
	for _, sh := range c.Shards {
		hits += sh.ParseHits()
	}
	if hits != 1 {
		t.Errorf("4xx reached %d shards, want exactly 1", hits)
	}
	for _, sh := range c.Shards {
		st := sh.Server.Stats()
		if st.ResultCacheHits+st.ResultCacheMisses != 0 {
			t.Errorf("%s: 4xx touched the result cache (hits=%d misses=%d)",
				sh.Name, st.ResultCacheHits, st.ResultCacheMisses)
		}
	}
	// And a repeat of the same bad request is recomputed, not served
	// from any cache.
	resp2, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res server.ParseResult
	json.NewDecoder(resp2.Body).Decode(&res) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound || res.Cached {
		t.Errorf("repeat 4xx: status %d cached %v", resp2.StatusCode, res.Cached)
	}
}

// Test504IsTerminalNotRetried is the other half of the regression: a
// 504 means the request's own deadline expired mid-parse; retrying on
// another shard would duplicate side-effect-free work it cannot finish
// in time.
func Test504IsTerminalNotRetried(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	req := serialReq(workload.DemoSentence(3))
	_, _, owner := c.Parse(t, req)
	c.shardByName(t, owner).ForceStatus(http.StatusGatewayTimeout)
	before := c.Router.Stats()
	status, _, shard := c.Parse(t, req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 surfaced", status)
	}
	if shard != owner {
		t.Errorf("504 answered by %s, want the owning shard %s", shard, owner)
	}
	after := c.Router.Stats()
	if after.Failovers != before.Failovers {
		t.Errorf("504 was failed over: failovers %d -> %d", before.Failovers, after.Failovers)
	}
}

// TestRetryable5xxFailsOver: a 503 (e.g. a draining shard) IS retried
// on the next-ranked candidate.
func TestRetryable5xxFailsOver(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{})
	req := serialReq(workload.DemoSentence(6))
	_, _, owner := c.Parse(t, req)
	c.shardByName(t, owner).ForceStatus(http.StatusServiceUnavailable)
	status, _, shard := c.Parse(t, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", status)
	}
	if shard == owner {
		t.Errorf("503 shard %s still answered", owner)
	}
	if st := c.Router.Stats(); st.Failovers == 0 {
		t.Error("failover not counted")
	}
}

// TestEmptyFleetAnswers503 ejects everything and checks the router
// refuses cleanly (503, JSON schema, no panic) on every route.
func TestEmptyFleetAnswers503(t *testing.T) {
	c := New(t, 2, server.Config{}, router.Config{EjectAfter: 1})
	for _, sh := range c.Shards {
		sh.Kill()
	}
	c.AdvanceProbes(1)
	status, res, _ := c.Parse(t, serialReq(workload.DemoSentence(2)))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("parse on empty fleet: status %d, want 503", status)
	}
	if res.Error == "" {
		t.Error("503 carried no error message")
	}
	body, _ := json.Marshal(server.BatchRequest{Requests: []server.ParseRequest{serialReq(workload.DemoSentence(2))}})
	resp, err := http.Post(c.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch on empty fleet: status %d, want 503", resp.StatusCode)
	}
	if status, _ := Get(t, c.URL+"/v1/grammars"); status != http.StatusServiceUnavailable {
		t.Errorf("grammars on empty fleet: status %d, want 503", status)
	}
	if status, body := Get(t, c.URL+"/healthz"); status != http.StatusServiceUnavailable || !strings.Contains(body, `"down"`) {
		t.Errorf("healthz on empty fleet: status %d body %s", status, body)
	}
	if st := c.Router.Stats(); st.EmptyFleet == 0 {
		t.Error("empty-fleet refusals not counted")
	}
}

// TestClusterSmoke is the `make cluster-smoke` entry point: a fast
// end-to-end pass over routing, failover, revival, and aggregation.
func TestClusterSmoke(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{EjectAfter: 2, ReadmitAfter: 2})
	sents := sentences(9)
	for _, s := range sents {
		if status, _, _ := c.Parse(t, serialReq(s)); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	c.Shards[0].Kill()
	c.AdvanceProbes(2)
	for _, s := range sents {
		if status, _, shard := c.Parse(t, serialReq(s)); status != http.StatusOK || shard == c.Shards[0].Name {
			t.Fatalf("degraded fleet: status %d shard %s", status, shard)
		}
	}
	c.Shards[0].Revive()
	c.AdvanceProbes(2)
	if got := c.stateOf(t, c.Shards[0].URL); got != router.StateLive {
		t.Fatalf("state %v after revival, want live", got)
	}
	if status, body := Get(t, c.URL+"/metrics"); status != http.StatusOK || !strings.Contains(body, "parsecrouter_shard_requests_total") {
		t.Fatalf("metrics: %d", status)
	}
}

// shardByName resolves the harness shard behind an X-Parsec-Shard
// attribution.
func (c *Cluster) shardByName(t testing.TB, name string) *Shard {
	t.Helper()
	for _, sh := range c.Shards {
		if sh.Name == name {
			return sh
		}
	}
	t.Fatalf("no shard named %q", name)
	return nil
}

// stateOf looks up a shard's membership state by URL.
func (c *Cluster) stateOf(t testing.TB, url string) router.ShardState {
	t.Helper()
	for _, st := range c.Router.Statuses() {
		if st.URL == url {
			return st.State
		}
	}
	t.Fatalf("no shard with URL %q", url)
	return 0
}
