package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// post sends one /v1/parse body to url and returns the status, the
// answering shard's name and the raw body.
func post(t testing.TB, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(server.ShardHeader), data
}

// parseHits sums the /v1/parse requests that reached any shard.
func (c *Cluster) parseHits() (n int64) {
	for _, sh := range c.Shards {
		n += sh.ParseHits()
	}
	return n
}

// TestRouterHitIsShardHitBytes: through a 2-shard fleet with the router
// cache at its default, a key's first request misses at its shard, its
// second is that shard's hit, which the router keeps, and its third is
// the router's own answer. That answer is byte-equal to the owning
// shard's hit for the same request, and no shard sees it.
func TestRouterHitIsShardHitBytes(t *testing.T) {
	c := New(t, 2, server.Config{}, router.Config{})
	body, err := json.Marshal(serialReq(workload.DemoSentence(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, owner, first := post(t, c.URL, body)
	if bytes.Contains(first, []byte(`"cached":true`)) {
		t.Fatalf("first request was a hit: %s", first)
	}
	if _, shard, _ := post(t, c.URL, body); shard != owner {
		t.Fatalf("second request answered by %q, want its owner %q", shard, owner)
	}
	_, _, shardHit := post(t, c.shardByName(t, owner).URL, body)

	hits, before := c.parseHits(), c.Router.Stats()
	status, shard, routerHit := post(t, c.URL, body)
	if status != http.StatusOK || shard != "router" {
		t.Fatalf("third request: status %d from %q, want 200 from the router", status, shard)
	}
	if !bytes.Equal(routerHit, shardHit) {
		t.Errorf("router hit differs from the shard's hit:\nrouter %q\nshard  %q", routerHit, shardHit)
	}
	if n := c.parseHits() - hits; n != 0 {
		t.Errorf("a router hit reached the shards %d times", n)
	}
	after := c.Router.Stats()
	if servedTotal(after) != servedTotal(before) || after.CacheHits != before.CacheHits+1 {
		t.Errorf("router hit: served %d → %d, cache hits %d → %d; want served unchanged and one hit",
			servedTotal(before), servedTotal(after), before.CacheHits, after.CacheHits)
	}
}

// TestRouterResultCacheRaces hammers a 2-entry router cache in front of
// two real shards from 8 goroutines, 25 requests each over 3 keys, so
// lookups, keeps and evictions interleave (make race-router runs it
// under -race). Every answer must be its own request's sentence.
func TestRouterResultCacheRaces(t *testing.T) {
	c := New(t, 2, server.Config{}, router.Config{ResultCacheEntries: 2})
	sents := sentences(3)
	bodies := make([][]byte, len(sents))
	for i, s := range sents {
		body, err := json.Marshal(serialReq(s))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := (g + i) % len(sents)
				resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				var res server.ParseResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !slices.Equal(res.Sentence, sents[k]) {
					t.Errorf("goroutine %d request %d: status %d err %v sentence %v, want %v",
						g, i, resp.StatusCode, err, res.Sentence, sents[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
