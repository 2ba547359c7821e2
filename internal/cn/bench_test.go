package cn

import (
	"fmt"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/workload"
)

// benchSpace returns the space of an n-word sentence of the demo or the
// English grammar.
func benchSpace(b *testing.B, grammar string, n int) (*cdg.Grammar, *cdg.Space) {
	b.Helper()
	g, words := grammars.PaperDemo(), workload.DemoSentence(n)
	if grammar == "english" {
		g, words = grammars.English(), workload.EnglishSentence(n)
	}
	return g, spaceOf(b, g, words)
}

func BenchmarkNetworkConstruction(b *testing.B) {
	for _, n := range []int{5, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, sp := benchSpace(b, "demo", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				New(sp)
			}
		})
	}
}

func BenchmarkApplyBinary(b *testing.B) {
	for _, n := range []int{5, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, sp := benchSpace(b, "demo", n)
			base := New(sp)
			for _, c := range g.Unary() {
				base.ApplyUnary(c)
			}
			bc := g.Binary()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := base.Clone()
				b.StartTimer()
				nw.ApplyBinary(bc)
			}
		})
	}
}

// BenchmarkApplyUnary times serial's unary phase, every unary
// constraint on a fresh network, on the workloads' grammar.
func BenchmarkApplyUnary(b *testing.B) {
	for _, n := range []int{8, 12} {
		b.Run(fmt.Sprintf("english,n=%d", n), func(b *testing.B) {
			g, sp := benchSpace(b, "english", n)
			base := New(sp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := base.Clone()
				b.StartTimer()
				for _, c := range g.Unary() {
					nw.ApplyUnary(c)
				}
			}
		})
	}
}

// BenchmarkConsistencyPass times one consistency pass over a network
// with every unary and binary constraint applied and none of their
// passes run yet.
func BenchmarkConsistencyPass(b *testing.B) {
	for _, tc := range []struct {
		grammar string
		n       int
	}{{"demo", 8}, {"english", 8}, {"english", 12}} {
		b.Run(fmt.Sprintf("%s,n=%d", tc.grammar, tc.n), func(b *testing.B) {
			g, sp := benchSpace(b, tc.grammar, tc.n)
			nw := New(sp)
			for _, c := range g.Unary() {
				nw.ApplyUnary(c)
			}
			for _, c := range g.Binary() {
				nw.ApplyBinary(c)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := nw.Clone()
				// Re-applying a unary constraint changes nothing but
				// lets the clone make its scratch, as a parse's unary
				// phase does before its first pass.
				work.ApplyUnary(g.Unary()[0])
				b.StartTimer()
				work.ConsistencyPass()
			}
		})
	}
}

func BenchmarkExtractParses(b *testing.B) {
	g := grammars.English()
	sent, err := cdg.Resolve(g, workload.AmbiguousEnglish(2), nil)
	if err != nil {
		b.Fatal(err)
	}
	nw := New(cdg.NewSpace(g, sent))
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
		nw.ConsistencyPass()
	}
	nw.Filter(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.ExtractParses(0)
	}
}
