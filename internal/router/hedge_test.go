package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// ctxRecorder records the request context of every forward it
// carries, by shard host, before handing the request to next.
type ctxRecorder struct {
	mu   sync.Mutex
	ctxs map[string]context.Context
	next http.RoundTripper
}

func (c *ctxRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.ctxs[req.URL.Host] = req.Context()
	c.mu.Unlock()
	return c.next.RoundTrip(req)
}

func (c *ctxRecorder) ctx(host string) context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctxs[host]
}

// TestHedgedWinnerContextLivesUntilBodyClosed is the regression test
// for truncated hedged replies: hedgedDo used to cancel the winner's
// request context on return, before the relay had copied its body. The
// winner's context must stay live until its body is closed, while the
// loser is still cancelled and awaited before hedgedDo returns. A
// stalled shard answers only once its context ends, so neither case
// sleeps.
func TestHedgedWinnerContextLivesUntilBodyClosed(t *testing.T) {
	stall := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { <-req.Context().Done() })
	ok := fakeShard(http.StatusOK, http.StatusOK, "")
	for _, tc := range []struct {
		name          string
		delay         time.Duration
		a, b          http.Handler
		winner, loser string // loser "" when no hedge fires
	}{
		{"primary answers before the hedge delay", time.Hour, ok, stall, "a:1", ""},
		{"hedge answers while the primary stalls", -1, stall, ok, "b:1", "a:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &ctxRecorder{ctxs: map[string]context.Context{}, next: fakeShards{"a:1": tc.a, "b:1": tc.b}}
			r, err := New(Config{
				Shards:        []string{"http://a:1", "http://b:1"},
				ProbeInterval: -1,
				Hedge:         true,
				HedgeDelay:    tc.delay,
				Client:        &http.Client{Transport: rec},
			})
			if err != nil {
				t.Fatal(err)
			}
			fr, won, shed := r.hedgedDo(context.Background(), "/v1/parse", "application/json", []byte(`{}`), "http://a:1", "http://b:1", classInteractive)
			if !won || shed || fr.shard != "http://"+tc.winner {
				t.Fatalf("hedgedDo: won=%v shed=%v shard=%s, want a win from %s", won, shed, fr.shard, tc.winner)
			}
			if tc.loser != "" {
				if err := rec.ctx(tc.loser).Err(); err == nil {
					t.Error("loser's context still live after hedgedDo returned")
				}
			}
			winCtx := rec.ctx(tc.winner)
			if err := winCtx.Err(); err != nil {
				t.Fatalf("winner's context ended before its body was read: %v", err)
			}
			if _, err := io.ReadAll(fr.resp.Body); err != nil {
				t.Fatal(err)
			}
			fr.resp.Body.Close()
			if winCtx.Err() == nil {
				t.Error("winner's context still live after its body was closed")
			}
		})
	}
}

// TestLatencyDigestOnlyWhenHedging: only hedgeDelay reads the latency
// digest, so a router without hedging builds none and its forwards
// record nothing, while a hedging router records each successful
// forward.
func TestLatencyDigestOnlyWhenHedging(t *testing.T) {
	for _, hedge := range []bool{false, true} {
		r, err := New(Config{
			Shards:        []string{"http://a:1"},
			ProbeInterval: -1,
			Hedge:         hedge,
			Client:        &http.Client{Transport: fakeShards{"a:1": fakeShard(http.StatusOK, http.StatusOK, "")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if (r.digest != nil) != hedge {
			t.Fatalf("hedge=%v: digest built = %v", hedge, r.digest != nil)
		}
		resp, shed, err := r.forwardOnce(context.Background(), "http://a:1", "/v1/parse", "application/json", strings.NewReader(`{}`), classInteractive)
		if err != nil || shed {
			t.Fatalf("hedge=%v: forward err=%v shed=%v", hedge, err, shed)
		}
		resp.Body.Close()
		if hedge && r.digest.perShard["http://a:1"].n != 1 {
			t.Errorf("hedging router recorded %d observations, want 1", r.digest.perShard["http://a:1"].n)
		}
	}
}

// TestHedgeFallbackSkipsFailedReplicas: when both hedged replicas of a
// promoted key answer a retryable 500, the fallback fails over to the
// rest of the HRW order and never sends the request to either replica
// again, so every shard sees it at most once. With a third shard the
// client gets its 200; when the replicas are the whole fleet it gets a
// 503 naming their failure.
func TestHedgeFallbackSkipsFailedReplicas(t *testing.T) {
	body := `{"text":"the program runs","backend":"serial"}`
	var preq server.ParseRequest
	if err := json.Unmarshal([]byte(body), &preq); err != nil {
		t.Fatal(err)
	}
	key, err := server.CacheKey(preq)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		shards        []string
		wantStatus    int
		wantFailovers uint64
	}{
		{"third shard left", []string{"http://a:1", "http://b:1", "http://c:1"}, http.StatusOK, 1},
		{"no shard left", []string{"http://a:1", "http://b:1"}, http.StatusServiceUnavailable, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			order := RankShards(tc.shards, key)
			replicas := order[:2]
			var failing atomic.Bool
			var mu sync.Mutex
			got := map[string]int{}
			fleet := fakeShards{}
			for _, s := range tc.shards {
				fleet[strings.TrimPrefix(s, "http://")] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					mu.Lock()
					got[s]++
					mu.Unlock()
					if failing.Load() && (s == replicas[0] || s == replicas[1]) {
						w.WriteHeader(http.StatusInternalServerError)
						return
					}
					w.Header().Set("Content-Type", "application/json")
					io.WriteString(w, `{"accepted":true}`) //nolint:errcheck
				})
			}
			r, err := New(Config{
				Shards:        tc.shards,
				ProbeInterval: -1,
				ReplicateTop:  1,
				ReplicaFactor: 2,
				HotKeyShare:   0.5,
				HotKeyWindow:  4,
				Hedge:         true,
				HedgeDelay:    -1,
				Client:        &http.Client{Transport: fleet},
			})
			if err != nil {
				t.Fatal(err)
			}
			post := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", strings.NewReader(body)))
				return rec
			}
			// Two requests promote the key; the promoting one warms the
			// second replica in the background, and round-robin starts
			// once that is done.
			for i := 0; i < 2; i++ {
				if rec := post(); rec.Code != http.StatusOK {
					t.Fatalf("warm-up request %d: status %d", i, rec.Code)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for r.Stats().HotKeyWarms < 1 {
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for the replica warm-up")
				}
				runtime.Gosched()
			}

			failing.Store(true)
			mu.Lock()
			clear(got)
			mu.Unlock()
			before := r.Stats()
			rec := post()
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.wantStatus, rec.Body)
			}
			if tc.wantStatus == http.StatusOK {
				if shard := rec.Header().Get(server.ShardHeader); shard != order[2] {
					t.Errorf("answered by %s, want the third shard %s", shard, order[2])
				}
			} else if !strings.Contains(rec.Body.String(), "status 500") {
				t.Errorf("503 does not name the replicas' failure: %s", rec.Body)
			}
			mu.Lock()
			for shard, n := range got {
				if n > 1 {
					t.Errorf("shard %s received the request %d times, want at most once: %v", shard, n, got)
				}
			}
			mu.Unlock()
			after := r.Stats()
			if hedges := after.Hedges - before.Hedges; hedges != 1 {
				t.Errorf("hedges %d, want 1", hedges)
			}
			if failovers := after.Failovers - before.Failovers; failovers != tc.wantFailovers {
				t.Errorf("failovers %d, want %d", failovers, tc.wantFailovers)
			}
		})
	}
}

// TestHedgedAttemptsCountAgainstRetries: a request reaches at most
// 1+Retries shards, and the two hedged attempts count against that
// budget. On five shards that all answer 500 once a key is promoted and
// warmed, the fallback after both replicas fail gets Retries-1 shards,
// so one request makes 1+Retries forwards, each to a different shard.
func TestHedgedAttemptsCountAgainstRetries(t *testing.T) {
	const body = `{"text":"the program runs","backend":"serial"}`
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	var failing atomic.Bool
	var mu sync.Mutex
	got := map[string]int{}
	fleet := fakeShards{}
	for _, s := range shards {
		fleet[strings.TrimPrefix(s, "http://")] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			mu.Lock()
			got[s]++
			mu.Unlock()
			if failing.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"accepted":true}`) //nolint:errcheck
		})
	}
	r, err := New(Config{
		Shards:        shards,
		ProbeInterval: -1,
		ReplicateTop:  1,
		ReplicaFactor: 2,
		HotKeyShare:   0.5,
		HotKeyWindow:  4,
		Hedge:         true,
		HedgeDelay:    -1,
		Client:        &http.Client{Transport: fleet},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", strings.NewReader(body)))
		return rec
	}
	for i := 0; i < 2; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			t.Fatalf("warm-up request %d: status %d", i, rec.Code)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().HotKeyWarms < 1 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the replica warm-up")
		}
		runtime.Gosched()
	}

	failing.Store(true)
	mu.Lock()
	clear(got)
	mu.Unlock()
	before := r.Stats()
	if rec := post(); rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want the last attempt's 500 relayed: %s", rec.Code, rec.Body)
	}
	mu.Lock()
	defer mu.Unlock()
	forwards := 0
	for shard, n := range got {
		forwards += n
		if n > 1 {
			t.Errorf("shard %s received the request %d times, want at most once: %v", shard, n, got)
		}
	}
	if budget := 1 + r.cfg.Retries; forwards > budget {
		t.Errorf("%d forwards for one request, want at most 1+Retries = %d: %v", forwards, budget, got)
	}
	if failovers := r.Stats().Failovers - before.Failovers; failovers != 1 {
		t.Errorf("failovers %d, want 1 (to the one fallback shard)", failovers)
	}
}
