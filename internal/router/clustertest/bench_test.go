package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// BenchmarkHedgedFleet drives a zipf-skewed workload — the load shape
// hot-key replication targets — through a 3-shard fleet with one
// persistently slow shard (the scenario hedging targets), with
// replication, hedging, and admission control all enabled. It reports
// sents/s throughput and the client-observed p99 (p99-ns/op), both of
// which benchjson folds into BENCH_scan.json; E11 in EXPERIMENTS.md
// tracks the same two numbers on a real multi-process fleet.
func BenchmarkHedgedFleet(b *testing.B) {
	c := New(b, 3, server.Config{}, router.Config{
		ReplicateTop: 4, ReplicaFactor: 2, HotKeyShare: 0.05, HotKeyWindow: 256,
		Hedge:       true,
		HedgeDelay:  time.Millisecond,
		MaxInflight: 256,
		// Off, or repeats of the head keys never reach a replica to hedge.
		ResultCacheEntries: -1,
	})
	// Zipf head over a small key pool: the top key carries a large
	// share of the traffic and promotes quickly. Seeded, so every run
	// replays the same request sequence.
	rng := rand.New(rand.NewSource(7))
	pool := sentences(32)
	bodies := make([][]byte, len(pool))
	for i, s := range pool {
		body, err := json.Marshal(serialReq(s))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	z := rand.NewZipf(rng, 1.3, 1, uint64(len(pool)-1))
	// One shard is persistently slow — slower than the hedge delay, so
	// replicated keys routed to it get rescued by the hedge while
	// unreplicated tail keys it owns ride out the stall.
	c.Shards[2].ForceDelay(3 * time.Millisecond)
	defer c.Shards[2].ForceDelay(0)

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(bodies[z.Uint64()]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[(99*len(lat)-1)/100]
	b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "sents/s")
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/op")
}

// BenchmarkFleetHit times one warm /v1/parse through a 2-shard fleet:
// with the router cache at its default (router-cache, answered at the
// router) and off (shard-hit, answered by the owning shard's result
// cache after the router→shard hop).
func BenchmarkFleetHit(b *testing.B) {
	body, err := json.Marshal(serialReq(sentences(6)[5]))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		entries int
	}{{"router-cache", 0}, {"shard-hit", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(b, 2, server.Config{}, router.Config{ResultCacheEntries: bc.entries})
			hit := func() {
				resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			// The first request parses and the second is the shard's hit,
			// which the router cache keeps when it is on.
			hit()
			hit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
