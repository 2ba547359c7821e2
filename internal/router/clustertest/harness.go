// Package clustertest is the in-process cluster harness: it boots N
// real server.New backends on httptest listeners plus one router, all
// in one process, with deterministic membership control — a shard can
// be killed (connections dropped at the socket, exactly what a crashed
// node looks like to the router) and revived, and health probes are
// advanced synchronously with AdvanceProbes instead of sleeping
// against a ticker. Tier-1 cluster tests (routing determinism, cache
// affinity, ejection/failover/re-admission, metrics aggregation, churn
// under -race) build on it.
package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// Shard is one backend under harness control.
type Shard struct {
	Name   string
	URL    string
	Server *server.Server

	ts          *httptest.Server
	down        atomic.Bool
	force       atomic.Int64 // when non-zero, /v1/* responds with this status
	delay       atomic.Int64 // when non-zero, /v1/* stalls this many ns (or until ctx cancel)
	delayHits   atomic.Int64 // /v1/* requests that entered a forced delay
	parseHits   atomic.Int64
	batchHits   atomic.Int64
	latticeHits atomic.Int64
}

// Kill makes the shard drop every connection at the socket — to the
// router it is indistinguishable from a crashed node (transport
// errors on proxy and probe alike). In-flight requests are cut too.
func (s *Shard) Kill() { s.down.Store(true) }

// Revive restores normal service.
func (s *Shard) Revive() { s.down.Store(false) }

// ForceStatus makes every /v1/* request answer with the given HTTP
// status without reaching the backend (0 restores normal service).
// Probes are unaffected, so the shard stays live — this isolates the
// router's per-status failover policy from membership.
func (s *Shard) ForceStatus(code int) { s.force.Store(int64(code)) }

// ForceDelay makes every /v1/* request stall for d before reaching the
// backend (0 restores normal service). The stall ends early — without
// a response — when the request's context is cancelled, so a test can
// use an effectively infinite d and still tear down instantly: the
// blocked attempt just waits to observe its own cancellation. Probes
// are unaffected, so the shard stays live; this is the latency-fault
// twin of ForceStatus, backing the admission tests and benchfleet's
// delay faults.
func (s *Shard) ForceDelay(d time.Duration) { s.delay.Store(int64(d)) }

// DelayHits reports how many /v1/* requests entered a forced delay.
func (s *Shard) DelayHits() int64 { return s.delayHits.Load() }

// ParseHits reports how many /v1/parse requests reached the backend.
func (s *Shard) ParseHits() int64 { return s.parseHits.Load() }

// BatchHits reports how many /v1/batch requests reached the backend.
func (s *Shard) BatchHits() int64 { return s.batchHits.Load() }

// LatticeHits reports how many lattice requests (batch and streaming)
// reached the backend.
func (s *Shard) LatticeHits() int64 { return s.latticeHits.Load() }

func (s *Shard) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.down.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("clustertest: response writer is not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		if code := s.force.Load(); code != 0 && len(r.URL.Path) >= 4 && r.URL.Path[:4] == "/v1/" {
			w.Header().Set(server.ShardHeader, s.Name)
			w.Header().Set("Content-Type", "application/json")
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				// Mirror the real server's backpressure hint so tests can
				// check the router propagates it.
				w.Header().Set("Retry-After", "7")
			}
			w.WriteHeader(int(code))
			fmt.Fprintf(w, `{"error":"clustertest: forced status %d"}`, code)
			return
		}
		if d := s.delay.Load(); d != 0 && len(r.URL.Path) >= 4 && r.URL.Path[:4] == "/v1/" {
			s.delayHits.Add(1)
			// Consume the body before stalling and hand the backend a
			// replay: the net/http server only watches for client
			// disconnect — the signal that cancels r.Context() — once the
			// request body has been read to EOF.
			if data, err := io.ReadAll(r.Body); err == nil {
				r.Body.Close()
				r.Body = io.NopCloser(bytes.NewReader(data))
			}
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				// The caller gave up: hijack and drop the connection so no
				// response is written.
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close()
					}
				}
				return
			}
		}
		switch r.URL.Path {
		case "/v1/parse":
			s.parseHits.Add(1)
		case "/v1/batch":
			s.batchHits.Add(1)
		case "/v1/lattice", "/v1/lattice/stream":
			s.latticeHits.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
}

// Cluster is N shards behind one router, all in-process.
type Cluster struct {
	Router *router.Router
	URL    string // router base URL
	Shards []*Shard

	rts *httptest.Server
}

// Boot brings up n backends with scfg (ShardName is overridden per
// shard: shard0..shardN-1) and one router with rcfg (Shards and Client
// are filled in; the background prober is disabled so membership only
// advances through AdvanceProbes). It is the non-testing constructor —
// the fleet benchmark orchestrator (internal/benchfleet) boots its
// in-process mode through it — and the caller owns teardown via Close.
func Boot(n int, scfg server.Config, rcfg router.Config) (*Cluster, error) {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		scfg.ShardName = fmt.Sprintf("shard%d", i)
		s := server.New(scfg)
		sh := &Shard{Name: scfg.ShardName, Server: s}
		sh.ts = httptest.NewServer(sh.handler(s.Handler()))
		sh.URL = sh.ts.URL
		c.Shards = append(c.Shards, sh)
	}
	rcfg.Shards = nil
	for _, sh := range c.Shards {
		rcfg.Shards = append(rcfg.Shards, sh.URL)
	}
	rcfg.ProbeInterval = -1 // deterministic: probes advance only via AdvanceProbes
	if rcfg.Client == nil {
		rcfg.Client = &http.Client{}
	}
	r, err := router.New(rcfg)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("clustertest: router.New: %w", err)
	}
	c.Router = r
	c.rts = httptest.NewServer(r.Handler())
	c.URL = c.rts.URL
	return c, nil
}

// Close tears the cluster down: router listener first, then every
// shard (revived so a killed shard's listener can close cleanly).
func (c *Cluster) Close() {
	if c.rts != nil {
		c.rts.Close()
	}
	for _, sh := range c.Shards {
		sh.Revive() // let Close finish even if the shard was killed
		sh.ts.Close()
		sh.Server.Shutdown(context.Background()) //nolint:errcheck // teardown
	}
}

// New is Boot wired to a test's lifecycle: failures become t.Fatal and
// teardown runs via t.Cleanup.
func New(t testing.TB, n int, scfg server.Config, rcfg router.Config) *Cluster {
	t.Helper()
	c, err := Boot(n, scfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// AdvanceProbes runs n synchronous probe rounds, applying the
// membership state machines deterministically.
func (c *Cluster) AdvanceProbes(n int) {
	for i := 0; i < n; i++ {
		c.Router.ProbeOnce(context.Background())
	}
}

// Parse posts one request through the router and returns the HTTP
// status, decoded result, and the shard that answered (from the
// X-Parsec-Shard header).
func (c *Cluster) Parse(t testing.TB, req server.ParseRequest) (int, server.ParseResult, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(body))
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
	return resp.StatusCode, res, resp.Header.Get(server.ShardHeader)
}

// Get fetches a router or shard URL and returns status and body.
func Get(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}
