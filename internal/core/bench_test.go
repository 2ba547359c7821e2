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
// speedup is worth at the pipeline level). One op is one
// ParseGangContext call, so ns/op and the stage metrics share a unit
// and the stages can be read as shares of it; sents/s is the
// throughput. batch=1 is the serving path's latency shape; batch=32
// amortizes layout and gang-scheduling overhead the way the batch
// endpoint does, but its members are identical and share one class
// representative's check work. The distinct case is the serving
// benchmark's maspar-gang shape: eight different 5-word sentences, so
// every member's checks run. batch=1,n=17 is a solo long sentence: a
// gang of one runs its binary passes on a single host worker, so this
// row shows what that costs.
func BenchmarkEndToEndParse(b *testing.B) {
	g := grammars.English()
	eight := strings.Fields("the dog saw the man with the telescope")
	long := strings.Fields("the big old dog saw the old man with the telescope in the park with the ball")
	same := func(batch int) [][]string {
		out := make([][]string, batch)
		for i := range out {
			out[i] = eight
		}
		return out
	}
	var gang5 [][]string
	for _, s := range distinctFive {
		gang5 = append(gang5, strings.Fields(s))
	}
	for _, tc := range []struct {
		name  string
		words [][]string
	}{
		{"batch=1", same(1)},
		{"batch=1,n=17", [][]string{long}},
		{"batch=32", same(32)},
		{"batch=8,distinct,n=5", gang5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var attr Attribution
			p := NewParser(g, WithBackend(MasPar), WithAttribution(&attr))
			sents := make([]*cdg.Sentence, len(tc.words))
			for i, words := range tc.words {
				sent, err := cdg.Resolve(g, words, nil)
				if err != nil {
					b.Fatal(err)
				}
				sents[i] = sent
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := p.ParseGangContext(ctx, sents); err != nil {
					b.Fatal(err)
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
