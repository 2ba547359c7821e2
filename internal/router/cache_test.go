package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
)

// size reports how many answers the cache keeps.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// scriptedShard answers every /v1/parse with the status, cache header
// and body its fields hold at the time, and counts the parses it saw.
type scriptedShard struct {
	mu     sync.Mutex
	status int
	hit    bool
	body   string
	parses int
}

func (s *scriptedShard) set(status int, hit bool, body string) {
	s.mu.Lock()
	s.status, s.hit, s.body = status, hit, body
	s.mu.Unlock()
}

func (s *scriptedShard) seen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parses
}

func (s *scriptedShard) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	status, hit, body := s.status, s.hit, s.body
	if req.URL.Path == "/v1/parse" {
		s.parses++
	}
	s.mu.Unlock()
	switch req.URL.Path {
	case "/v1/parse":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(server.ShardHeader, "s0")
		if hit {
			w.Header().Set(server.CacheHeader, "hit")
		}
		w.WriteHeader(status)
		io.WriteString(w, body) //nolint:errcheck
	case "/healthz":
		w.WriteHeader(status)
	default:
		http.NotFound(w, req)
	}
}

// cacheRouter is a one-shard router over a scripted shard.
func cacheRouter(t *testing.T, cfg Config) (*Router, *scriptedShard) {
	t.Helper()
	sh := &scriptedShard{status: http.StatusOK}
	cfg.Shards = []string{"http://s0:1"}
	cfg.ProbeInterval = -1
	cfg.EjectAfter = 1
	cfg.Client = &http.Client{Transport: fakeShards{"s0:1": sh}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, sh
}

// postParse serves one /v1/parse through r.
func postParse(r *Router, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", strings.NewReader(body)))
	return rec
}

// TestRouterCacheKeepsOnlyShardHits: the router keeps a 200 the shard
// marks as a result-cache hit, and answers the next identical request
// with the same bytes as X-Parsec-Shard "router", without a forward. A
// timed first answer, a non-200, a body over 64 KiB and a no_cache
// request are never kept, and a no_cache request never reads the
// cache.
func TestRouterCacheKeepsOnlyShardHits(t *testing.T) {
	const req = `{"backend":"serial","text":"the program runs"}`
	const noCache = `{"backend":"serial","text":"the program runs","no_cache":true}`
	const hitBody = `{"sentence":["the","program","runs"],"accepted":true,"cached":true}` + "\n"
	big := `{"parses":["` + strings.Repeat("x", maxCachedBody) + `"],"cached":true}` + "\n"
	for _, tc := range []struct {
		name   string
		status int
		hit    bool
		body   string
		req    string
	}{
		{"first answer", http.StatusOK, false, `{"host_time_us":12}` + "\n", req},
		{"non-200", http.StatusTooManyRequests, true, `{"error":"queue full"}` + "\n", req},
		{"over 64 KiB", http.StatusOK, true, big, req},
		{"no_cache", http.StatusOK, true, hitBody, noCache},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, sh := cacheRouter(t, Config{})
			sh.set(tc.status, tc.hit, tc.body)
			for i := 0; i < 2; i++ {
				rec := postParse(r, tc.req)
				if rec.Code != tc.status || rec.Body.String() != tc.body {
					t.Fatalf("request %d: status %d, %d body bytes; want the shard's %d, %d bytes", i, rec.Code, rec.Body.Len(), tc.status, len(tc.body))
				}
				if got := rec.Header().Get(server.ShardHeader); got != "s0" {
					t.Errorf("request %d answered by %q, want the shard", i, got)
				}
			}
			if n := sh.seen(); n != 2 {
				t.Errorf("shard saw %d parses, want both", n)
			}
			if n := r.cache.size(); n != 0 {
				t.Errorf("router cache holds %d entries, want none", n)
			}
		})
	}

	t.Run("shard hit", func(t *testing.T) {
		r, sh := cacheRouter(t, Config{})
		sh.set(http.StatusOK, true, hitBody)
		if rec := postParse(r, req); rec.Body.String() != hitBody {
			t.Fatalf("relayed body %q, want %q", rec.Body, hitBody)
		}
		// A no_cache request neither reads the kept answer nor refreshes it.
		sh.set(http.StatusOK, true, `{"other":true}`+"\n")
		if rec := postParse(r, noCache); rec.Header().Get(server.ShardHeader) != "s0" {
			t.Errorf("no_cache request answered by %q, want the shard", rec.Header().Get(server.ShardHeader))
		}
		before := r.Stats()
		rec := postParse(r, `{"text":"the program runs","backend":"serial","timeout_ms":5}`)
		if rec.Code != http.StatusOK || rec.Body.String() != hitBody {
			t.Fatalf("router hit: status %d body %q, want 200 %q", rec.Code, rec.Body, hitBody)
		}
		if got := rec.Header().Get(server.ShardHeader); got != cacheAnswerer {
			t.Errorf("router hit answered by %q, want %q", got, cacheAnswerer)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("router hit Content-Type %q", got)
		}
		if n := sh.seen(); n != 2 {
			t.Errorf("shard saw %d parses, want 2: the hit must not forward", n)
		}
		after := r.Stats()
		if after.CacheHits-before.CacheHits != 1 || after.CacheMisses != 1 {
			t.Errorf("cache hits +%d misses %d, want +1 and 1 (the no_cache request is no lookup)", after.CacheHits-before.CacheHits, after.CacheMisses)
		}
		if servedTotal(after) != servedTotal(before) {
			t.Errorf("a router hit counted as served by a shard")
		}
	})
}

// servedTotal sums the requests the shards answered.
func servedTotal(st Stats) (n uint64) {
	for _, v := range st.Requests {
		n += v
	}
	return n
}

// TestRouterCacheBoundedByEntries: the cache never holds more than
// ResultCacheEntries answers, evicting the least recently used.
func TestRouterCacheBoundedByEntries(t *testing.T) {
	r, sh := cacheRouter(t, Config{ResultCacheEntries: 2})
	body := func(i int) string { return fmt.Sprintf(`{"backend":"serial","text":"the program runs %d"}`, i) }
	for i := 0; i < 5; i++ {
		sh.set(http.StatusOK, true, fmt.Sprintf(`{"n":%d}`, i)+"\n")
		postParse(r, body(i))
		if n := r.cache.size(); n > 2 {
			t.Fatalf("after %d keys the cache holds %d entries, want at most 2", i+1, n)
		}
	}
	seen := sh.seen()
	if rec := postParse(r, body(4)); rec.Header().Get(server.ShardHeader) != cacheAnswerer {
		t.Errorf("the newest key was not answered by the router")
	}
	if rec := postParse(r, body(0)); rec.Header().Get(server.ShardHeader) != "s0" {
		t.Errorf("the oldest key was not evicted")
	}
	if got := sh.seen() - seen; got != 1 {
		t.Errorf("shard saw %d parses, want 1 (the evicted key)", got)
	}
}

// TestRouterCacheOffForwardsEveryRequest: with ResultCacheEntries -1
// there is no cache, every repeat reaches the shard, and the cache
// counters stay at zero.
func TestRouterCacheOffForwardsEveryRequest(t *testing.T) {
	r, sh := cacheRouter(t, Config{ResultCacheEntries: -1})
	sh.set(http.StatusOK, true, `{"cached":true}`+"\n")
	if r.cache != nil {
		t.Fatal("router built a cache with ResultCacheEntries -1")
	}
	for i := 0; i < 3; i++ {
		if rec := postParse(r, `{"backend":"serial","text":"the program runs"}`); rec.Header().Get(server.ShardHeader) != "s0" {
			t.Fatalf("request %d answered by %q, want the shard", i, rec.Header().Get(server.ShardHeader))
		}
	}
	if n := sh.seen(); n != 3 {
		t.Errorf("shard saw %d parses, want 3", n)
	}
	if st := r.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("cache counters %d/%d with the cache off", st.CacheHits, st.CacheMisses)
	}
}

// TestRouterCacheAnswersWithNoEligibleShard: a kept answer is a pure
// function of its key, so the router serves it with its only shard
// ejected, while a key it does not hold gets the empty-fleet 503.
func TestRouterCacheAnswersWithNoEligibleShard(t *testing.T) {
	r, sh := cacheRouter(t, Config{})
	sh.set(http.StatusOK, true, `{"cached":true}`+"\n")
	postParse(r, `{"backend":"serial","text":"the program runs"}`)
	sh.set(http.StatusServiceUnavailable, false, "")
	r.ProbeOnce(context.Background())
	if st := r.Statuses(); st[0].State != StateEjected {
		t.Fatalf("shard state %v, want ejected", st[0].StateName)
	}
	if rec := postParse(r, `{"backend":"serial","text":"the program runs"}`); rec.Code != http.StatusOK || rec.Header().Get(server.ShardHeader) != cacheAnswerer {
		t.Errorf("kept key with no eligible shard: status %d from %q, want 200 from the router", rec.Code, rec.Header().Get(server.ShardHeader))
	}
	if rec := postParse(r, `{"backend":"serial","text":"a program runs"}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("unkept key with no eligible shard: status %d, want 503", rec.Code)
	}
	if st := r.Stats(); st.EmptyFleet != 1 || st.CacheMisses != 1 {
		t.Errorf("empty-fleet %d, misses %d; want 1 and 1 (the refused lookup went to no shard)", st.EmptyFleet, st.CacheMisses)
	}
}
