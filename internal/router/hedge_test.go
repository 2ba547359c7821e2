package router

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
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
