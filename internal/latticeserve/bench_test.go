package latticeserve

import (
	"context"
	"testing"

	"repro/internal/grammars"
	"repro/internal/lattice"
)

// benchLattice builds the benchmark workload: a 14-slot utterance with
// acoustic confusions on three slots (8 candidate paths). The length
// matters: the fraction of constraint checks an appended slot can
// touch shrinks as ~4/n, so short utterances understate the reuse win.
func benchLattice(b *testing.B, slots int) *lattice.Lattice {
	b.Helper()
	l := lattice.New()
	alts := [][]lattice.Alt{
		{{Word: "the", Score: 0.9}},
		{{Word: "dog", Score: 0.9}, {Word: "ball", Score: 0.4}},
		{{Word: "saw", Score: 0.7}, {Word: "walked", Score: 0.6}},
		{{Word: "the", Score: 0.9}},
		{{Word: "man", Score: 0.8}, {Word: "chased", Score: 0.3}},
		{{Word: "with", Score: 0.9}},
		{{Word: "the", Score: 0.9}},
		{{Word: "telescope", Score: 0.8}},
		{{Word: "with", Score: 0.9}},
		{{Word: "the", Score: 0.9}},
		{{Word: "ball", Score: 0.7}},
		{{Word: "with", Score: 0.9}},
		{{Word: "the", Score: 0.9}},
		{{Word: "telescope", Score: 0.8}},
	}
	for _, a := range alts[:slots] {
		if err := l.AddSlot(a...); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// BenchmarkLatticeServing is the acceptance benchmark of the prefix
// snapshot design: "warm" serves the word-synchronous case — every
// prefix of every candidate is cached and only the final slot's
// extension plus filtering is paid — and must come in well under half
// of "cold", the same lattice decoded with an empty snapshot cache.
func BenchmarkLatticeServing(b *testing.B) {
	g := grammars.English()
	ctx := context.Background()
	full := benchLattice(b, 14)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var checks uint64
		for i := 0; i < b.N; i++ {
			e := New(Config{})
			out, err := e.DecodeContext(ctx, Request{Grammar: g, GrammarKey: "english", MaxParses: 1}, full)
			if err != nil {
				b.Fatal(err)
			}
			for _, h := range out.Hypotheses {
				if h.Counters != nil {
					checks += h.Counters.ConstraintChecks
				}
			}
		}
		b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
	})

	b.Run("warm", func(b *testing.B) {
		// Each iteration primes a fresh engine with every prefix by
		// decoding the 13-slot lattice outside the timer, then times
		// extending the cached prefixes by the final slot only.
		prefix := benchLattice(b, 13)
		req := Request{Grammar: g, GrammarKey: "english", MaxParses: 1}
		b.ReportAllocs()
		b.ResetTimer()
		var checks uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := New(Config{})
			if _, err := e.DecodeContext(ctx, req, prefix); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			out, err := e.DecodeContext(ctx, req, full)
			if err != nil {
				b.Fatal(err)
			}
			if out.PrefixHits == 0 {
				b.Fatal("warm decode did not reuse prefixes")
			}
			for _, h := range out.Hypotheses {
				if h.Counters != nil {
					checks += h.Counters.ConstraintChecks
				}
			}
		}
		b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
	})
}
