package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
)

// distinctFive is eight different 5-word English sentences: the shape of
// the serving benchmark's maspar-gang batches.
var distinctFive = []string{
	"the dog saw the man",
	"a cat chased the ball",
	"rex walked in the park",
	"the old dog slept quickly",
	"fido caught the red ball",
	"every man liked the cat",
	"the big dog ran slowly",
	"rex took the old telescope",
}

// BenchmarkEndToEndParse measures the full MasPar parse pipeline on the
// English grammar — resolve, propagation (compiled constraint eval),
// consistency maintenance (segmented scans), router traffic — and
// attributes the wall clock to those stages via WithAttribution. The
// exported eval-ns/op, scan-ns/op, and router-ns/op metrics are what
// let BENCH_scan.json say how much of an end-to-end parse the bytecode
// VM actually owns (and therefore what the measured constraint-eval
// speedup is worth at the pipeline level). One op parses every sentence
// of its row, one after another, so ns/op and the stage metrics share a
// unit and the stages can be read as shares of it; sents/s is the
// throughput. batch=1 is the serving path's latency shape, an 8-word
// sentence; batch=1,n=17 is a long sentence; solo×8,distinct,n=5 is
// the serving benchmark's maspar-gang batch, eight different 5-word
// sentences, as a pool worker parses it.
func BenchmarkEndToEndParse(b *testing.B) {
	g := grammars.English()
	for _, tc := range []struct {
		name      string
		sentences []string
	}{
		{"batch=1", []string{"the dog saw the man with the telescope"}},
		{"batch=1,n=17", []string{"the big old dog saw the old man with the telescope in the park with the ball"}},
		{"solo×8,distinct,n=5", distinctFive},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var attr Attribution
			p := NewParser(g, WithBackend(MasPar), WithAttribution(&attr))
			sents := make([]*cdg.Sentence, len(tc.sentences))
			for i, s := range tc.sentences {
				sent, err := cdg.Resolve(g, strings.Fields(s), nil)
				if err != nil {
					b.Fatal(err)
				}
				sents[i] = sent
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, sent := range sents {
					if _, err := p.ParseSentenceContext(ctx, sent); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			ops := float64(b.N)
			b.ReportMetric(float64(attr.EvalNs.Load())/ops, "eval-ns/op")
			b.ReportMetric(float64(attr.ScanNs.Load())/ops, "scan-ns/op")
			b.ReportMetric(float64(attr.RouterNs.Load())/ops, "router-ns/op")
			b.ReportMetric(ops*float64(len(sents))/b.Elapsed().Seconds(), "sents/s")
		})
	}
}
