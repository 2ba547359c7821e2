package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkResultCacheServing measures the request path of the HTTP
// service body (validation, grammar cache, resolution, pool round
// trip) with the result cache cold vs warm: cold forces a full parse
// per request (no_cache), warm serves the memoized result. warm,handler
// posts the same hit through Server.Handler to a recorder, no sockets:
// the request decode and the response write a client pays for too.
func BenchmarkResultCacheServing(b *testing.B) {
	run := func(b *testing.B, req ParseRequest, prime bool) {
		s := New(Config{Workers: 4})
		defer s.pool.Close()
		ctx := context.Background()
		if prime {
			if jr := s.serve(ctx, []ParseRequest{req}, false)[0]; jr.status != http.StatusOK {
				b.Fatalf("prime: status %d", jr.status)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if jr := s.serve(ctx, []ParseRequest{req}, false)[0]; jr.status != http.StatusOK {
				b.Fatalf("status %d", jr.status)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sents/s")
	}
	req := ParseRequest{
		Grammar: "english",
		Backend: "maspar",
		Text:    "the dog saw the man with the telescope",
	}
	b.Run("cold", func(b *testing.B) {
		r := req
		r.NoCache = true // every request parses
		run(b, r, false)
	})
	b.Run("warm", func(b *testing.B) {
		run(b, req, true) // primed: every request is a cache hit
	})
	b.Run("warm,handler", func(b *testing.B) {
		s := New(Config{Workers: 4})
		defer s.pool.Close()
		h := s.Handler()
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		post := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		post() // prime: every timed request is a cache hit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sents/s")
	})
}
