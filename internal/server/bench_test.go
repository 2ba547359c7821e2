package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/grammars"
)

// benchSentences builds n resolved copies of one 8-word english
// sentence — the gang path packs them side by side on one PE array, so
// identical members exercise exactly the batch-size scaling we want to
// measure.
func benchSentences(b *testing.B, g *cdg.Grammar, n int) []*cdg.Sentence {
	b.Helper()
	words := []string{"the", "dog", "saw", "the", "man", "with", "the", "telescope"}
	sents := make([]*cdg.Sentence, n)
	for i := range sents {
		sent, err := cdg.Resolve(g, words, nil)
		if err != nil {
			b.Fatal(err)
		}
		sents[i] = sent
	}
	return sents
}

// BenchmarkGangThroughput measures serving-path sentence throughput of
// ganged MasPar execution as the batch grows: batch=1 is the solo
// baseline, batch=8/32 run as one plural program over a packed PE
// array. The headline metric is sents/s — the per-sentence fixed costs
// (machine setup, mask replication, the broadcast of the lexical
// tables, per-kernel dispatch) amortize across the gang while the
// word-parallel inner loops stay proportional, so sents/s should rise
// steeply with batch size.
func BenchmarkGangThroughput(b *testing.B) {
	g := grammars.English()
	parser := core.NewParser(g, core.WithBackend(core.MasPar))
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sents := benchSentences(b, g, batch)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parser.ParseGangContext(ctx, sents); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "sents/s")
		})
	}
}

// BenchmarkResultCacheServing measures the request path of the HTTP
// service body (validation, grammar cache, resolution, pool round
// trip) with the result cache cold vs warm: cold forces a full parse
// per request (no_cache), warm serves the memoized result.
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
}
