package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// Hot-path tests: replication, hedging, and admission control, all
// driven deterministically — promotion points are exact functions of
// the request sequence (share 0.25 × window 64 ⇒ the 16th request of a
// key promotes it), stalls come from ForceDelay, and every wait is a
// busy-wait on an observable counter, never a sleep.

// promoteAt is the request count that promotes a key under
// hotShare/hotWindow below.
const (
	promoteAt = 16
	hotShare  = 0.25
	hotWindow = 64
)

// waitUntil busy-waits (yielding, never sleeping) until cond holds,
// bounded by a generous wall-clock deadline so a broken condition
// fails the test instead of hanging it.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// gatedTransport carries the router's forwards in tests that must order
// attempts across shards without sleeping: while a gate is set, each
// request waits until the gate admits it or its context ends.
type gatedTransport struct {
	gate atomic.Pointer[func(*http.Request) bool]
}

func (g *gatedTransport) holdUntil(gate func(*http.Request) bool) { g.gate.Store(&gate) }

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if gate := g.gate.Load(); gate != nil && *gate != nil {
		for !(*gate)(req) {
			if err := req.Context().Err(); err != nil {
				return nil, err
			}
			runtime.Gosched()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// postClass posts one parse through the router with an explicit
// admission class and returns the status, Retry-After header, and
// decoded result.
func postClass(t testing.TB, c *Cluster, req server.ParseRequest, class string) (int, string, server.ParseResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.URL+"/v1/parse", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if class != "" {
		hreq.Header.Set(server.ClassHeader, class)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("parse via router: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res server.ParseResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), res
}

// servedTotal sums terminal responses across shards — the invariant
// counter hedging must not double-increment.
func servedTotal(st router.Stats) (n uint64) {
	for _, v := range st.Requests {
		n += v
	}
	return n
}

// TestHotKeyReplicationSpreadsPrefixKeepsHitRate drives one hot key to
// promotion and checks the tentpole contract: the key round-robins
// across exactly its R-shard HRW prefix, the replicas were warmed
// before any client request reached them (so the fleet cache hit rate
// is no worse than the unreplicated baseline), and demotion semantics
// never enter — the cache identity (affinity key) never changes.
func TestHotKeyReplicationSpreadsPrefixKeepsHitRate(t *testing.T) {
	hot := serialReq(workload.DemoSentence(4))
	run := func(rcfg router.Config) (cached int, byShard map[string]int, c *Cluster) {
		c = New(t, 3, server.Config{}, rcfg)
		byShard = make(map[string]int)
		send := func() {
			status, res, shard := c.Parse(t, hot)
			if status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
			if res.Cached {
				cached++
			}
			byShard[shard]++
		}
		for i := 0; i < promoteAt; i++ {
			send()
		}
		if rcfg.ReplicateTop > 0 {
			// The promoting request fires the warm-up asynchronously; the
			// warms counter is published only after the key is marked ready.
			waitUntil(t, "replica warm-up", func() bool {
				return c.Router.Stats().HotKeyWarms >= uint64(rcfg.ReplicaFactor-1)
			})
		}
		for i := 0; i < 8; i++ {
			send()
		}
		return cached, byShard, c
	}

	// The router cache is off: this pins which shard serves each repeat.
	baseCached, baseShards, _ := run(router.Config{ResultCacheEntries: -1})
	repCached, repShards, rc := run(router.Config{
		ReplicateTop: 1, ReplicaFactor: 2, HotKeyShare: hotShare, HotKeyWindow: hotWindow,
		ResultCacheEntries: -1,
	})

	if len(baseShards) != 1 {
		t.Fatalf("unreplicated key touched %d shards: %v", len(baseShards), baseShards)
	}
	if len(repShards) != 2 {
		t.Fatalf("replicated key should spread across its 2-shard prefix, got %v", repShards)
	}
	// The promotion-era primary served the first 16 plus its round-robin
	// half of the last 8; the warmed replica served the other half.
	for shard, n := range repShards {
		if n != promoteAt+4 && n != 4 {
			t.Errorf("shard %s served %d requests, want %d (primary) or 4 (replica): %v",
				shard, n, promoteAt+4, repShards)
		}
	}
	st := rc.Router.Stats()
	if st.HotKeyPromotions != 1 {
		t.Errorf("promotions = %d, want exactly 1", st.HotKeyPromotions)
	}
	if st.HotKeyDemotions != 0 {
		t.Errorf("demotions = %d, want 0 (window never elapsed)", st.HotKeyDemotions)
	}
	// Fleet cache hit rate must not regress: warm-up means no client
	// request ever pays a replica's cold miss.
	if repCached < baseCached {
		t.Errorf("replication cost cache hits: %d/24 cached vs %d/24 unreplicated", repCached, baseCached)
	}
}

// TestHedgeFiresOnceCancelsLoserCountsOnce stalls the promoted key's
// primary and checks the hedge contract end to end: exactly one
// duplicate fires, it wins from the warmed replica, the stalled loser
// is context-cancelled at the shard, and the request is counted served
// exactly once.
func TestHedgeFiresOnceCancelsLoserCountsOnce(t *testing.T) {
	gated := &gatedTransport{}
	c := New(t, 3, server.Config{}, router.Config{
		ReplicateTop: 1, ReplicaFactor: 2, HotKeyShare: hotShare, HotKeyWindow: hotWindow,
		Hedge:              true,
		HedgeDelay:         -1, // hedge immediately: the deterministic-test setting
		Client:             &http.Client{Transport: gated},
		ResultCacheEntries: -1, // every repeat must reach the shards
	})
	hot := serialReq(workload.DemoSentence(5))
	var owner string
	for i := 0; i < promoteAt; i++ {
		status, _, shard := c.Parse(t, hot)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if owner == "" {
			owner = shard
		} else if shard != owner {
			t.Fatalf("pre-promotion requests split between %s and %s", owner, shard)
		}
	}
	waitUntil(t, "replica warm-up", func() bool { return c.Router.Stats().HotKeyWarms >= 1 })

	// The first post-warm request round-robins to prefix[0] — the
	// promotion-era owner, which we now stall. ForceDelay never answers
	// within the test's lifetime; it only observes its own cancellation.
	ownerShard := c.shardByName(t, owner)
	ownerShard.ForceDelay(time.Hour)
	defer ownerShard.ForceDelay(0)
	// Hold forwards to the other shards until the primary attempt has
	// reached the stalled owner: otherwise the hedge can win, and the
	// loser be cancelled, before there is any attempt at the shard to
	// cancel.
	ownerHost := strings.TrimPrefix(ownerShard.URL, "http://")
	gated.holdUntil(func(req *http.Request) bool { return req.URL.Host == ownerHost || ownerShard.DelayHits() >= 1 })
	defer gated.holdUntil(nil)

	before := c.Router.Stats()
	status, res, shard := c.Parse(t, hot)
	if status != http.StatusOK {
		t.Fatalf("hedged request: status %d", status)
	}
	if shard == owner {
		t.Fatalf("response attributed to the stalled primary %s", shard)
	}
	if !res.Cached {
		t.Errorf("hedge winner missed its cache: the warm-up should have primed %s", shard)
	}
	after := c.Router.Stats()
	if got := after.Hedges - before.Hedges; got != 1 {
		t.Errorf("hedges fired = %d, want exactly 1", got)
	}
	if got := after.HedgeWins - before.HedgeWins; got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
	if got := after.HedgeCancels - before.HedgeCancels; got != 1 {
		t.Errorf("hedge cancels = %d, want 1 (the stalled primary)", got)
	}
	if got := servedTotal(after) - servedTotal(before); got != 1 {
		t.Errorf("served count rose by %d for one hedged request, want exactly 1", got)
	}
	// The loser's cancellation must reach the shard (the stall exits via
	// ctx.Done, not by serving).
	waitUntil(t, "loser cancellation at the shard", func() bool { return ownerShard.DelayCancels() >= 1 })
	if hits := ownerShard.DelayHits(); hits != 1 {
		t.Errorf("stalled primary saw %d attempts, want exactly 1", hits)
	}
}

// TestAdmissionShedsBulkBeforeInteractive fills a single shard's
// in-flight cap with stalled requests and checks class priority: bulk
// sheds at 3/4 of the cap while interactive still admits, interactive
// sheds at the cap, the 429s carry Retry-After, batch sub-requests
// surface sheds as per-request errors, and the in-flight high-water
// mark never exceeds the cap.
func TestAdmissionShedsBulkBeforeInteractive(t *testing.T) {
	c := New(t, 1, server.Config{}, router.Config{MaxInflight: 2})
	sh := c.Shards[0]
	sh.ForceDelay(time.Hour)
	defer sh.ForceDelay(0)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	occupy := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(serialReq(workload.DemoSentence(2)))
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+"/v1/parse", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}

	occupy()
	waitUntil(t, "first forward in flight", func() bool { return sh.DelayHits() >= 1 })

	// Occupancy 1 of 2: bulk (cap 1) sheds, interactive still admits.
	status, retryAfter, _ := postClass(t, c, serialReq(workload.DemoSentence(3)), "bulk")
	if status != http.StatusTooManyRequests {
		t.Fatalf("bulk at occupancy 1: status %d, want 429", status)
	}
	if retryAfter != "1" {
		t.Errorf("shed 429 Retry-After = %q, want \"1\"", retryAfter)
	}
	occupy()
	waitUntil(t, "second forward in flight", func() bool { return sh.DelayHits() >= 2 })

	// Occupancy 2 of 2: interactive sheds too.
	status, _, _ = postClass(t, c, serialReq(workload.DemoSentence(3)), "interactive")
	if status != http.StatusTooManyRequests {
		t.Fatalf("interactive at occupancy 2: status %d, want 429", status)
	}

	// A batch defaults to bulk and surfaces the shed per request (the
	// batch schema has no per-result status).
	bbody, _ := json.Marshal(server.BatchRequest{Requests: []server.ParseRequest{serialReq(workload.DemoSentence(2))}})
	resp, err := http.Post(c.URL+"/v1/batch", "application/json", bytes.NewReader(bbody))
	if err != nil {
		t.Fatal(err)
	}
	var bres server.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&bres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(bres.Results) != 1 {
		t.Fatalf("shed batch: status %d results %d", resp.StatusCode, len(bres.Results))
	}
	if !strings.Contains(bres.Results[0].Error, "capacity") {
		t.Errorf("shed batch result error = %q, want a capacity refusal", bres.Results[0].Error)
	}

	st := c.Router.Stats()
	if st.ShedsBulk != 2 {
		t.Errorf("bulk sheds = %d, want 2 (one parse, one batch)", st.ShedsBulk)
	}
	if st.ShedsInteractive != 1 {
		t.Errorf("interactive sheds = %d, want 1", st.ShedsInteractive)
	}
	if high := st.InflightHigh[sh.URL]; high != 2 {
		t.Errorf("in-flight high-water = %d, want exactly the cap (2)", high)
	}
	if cur := st.Inflight[sh.URL]; cur != 2 {
		t.Errorf("in-flight now = %d, want 2 stalled occupants", cur)
	}
}

// TestRetryAfterPropagatesFromShard forces a shard-side 429 (which the
// harness decorates with Retry-After, like the real server) and checks
// the hint survives the router hop.
func TestRetryAfterPropagatesFromShard(t *testing.T) {
	c := New(t, 1, server.Config{}, router.Config{})
	c.Shards[0].ForceStatus(http.StatusTooManyRequests)
	defer c.Shards[0].ForceStatus(0)
	body, _ := json.Marshal(serialReq(workload.DemoSentence(2)))
	resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the shard's 429 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the shard's own hint \"7\"", got)
	}
}

// TestClusterSmokeHedged is the hot-path smoke run (`make
// cluster-smoke` matches the TestClusterSmoke prefix): replication,
// hedging, and admission all enabled on a healthy fleet — everything
// answers 200, the hot key promotes, and /metrics exposes the new
// series.
func TestClusterSmokeHedged(t *testing.T) {
	c := New(t, 3, server.Config{}, router.Config{
		ReplicateTop: 2, ReplicaFactor: 2, HotKeyShare: hotShare, HotKeyWindow: hotWindow,
		Hedge:              true,
		MaxInflight:        64,
		ResultCacheEntries: -1, // repeats must reach the hot-key tracker
	})
	hot := serialReq(workload.DemoSentence(6))
	for i := 0; i < promoteAt+4; i++ {
		if status, _, _ := c.Parse(t, hot); status != http.StatusOK {
			t.Fatalf("hot key: status %d", status)
		}
	}
	for _, s := range sentences(9) {
		if status, _, _ := c.Parse(t, serialReq(s)); status != http.StatusOK {
			t.Fatalf("background key: status %d", status)
		}
	}
	if st := c.Router.Stats(); st.HotKeyPromotions < 1 {
		t.Errorf("hot key never promoted: %+v", st)
	}
	status, body := Get(t, c.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, series := range []string{
		"parsecrouter_hotkey_promotions_total",
		"parsecrouter_hedges_total",
		"parsecrouter_sheds_total",
		"parsecrouter_shard_inflight",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
}
