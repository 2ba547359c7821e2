package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/router"
	"repro/internal/server"
)

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
