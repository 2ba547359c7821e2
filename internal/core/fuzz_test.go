package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/maspar"
)

// FuzzMasParMatchesReference parses a batch of sentences on the MasPar
// backend, one after another, and holds every member to two
// references: its network must equal the serial engine's (EqualState),
// and its cycles, scans, router operations, processors and layers
// PlanMasPar's price of the parse at the member's round count. The
// first member is also run step by step against the per-PE reference
// of hoist_test.go (checkHoistedMatchesPerPE) on the input's machine,
// which holds the plural state after every step, and the counters at
// the end, to the per-PE formulation. The inputs pick the grammar
// (grammar mod 3: English, the demo grammar, or grammars.Random(gseed)),
// the length (2 + n mod 5 words), the batch size (1 + gang mod 8), the
// machine size (32 << (pes mod 10) PEs, so a small machine spans many
// virtual layers) and per-constraint consistency rounds. Member b's
// words are grammars.RandomSentence(g, sseed+b, length), unless bit b of
// dups is set (b ≥ 1): then member b repeats member b−1. The seed
// corpus in testdata/fuzz holds the rows of TestHoistedEvalMatchesPerPE
// (grammar, length, batches of 1, 3 and 8, per-constraint flag; the
// random rows with their own sentence seeds), the regression sentences
// of TestRegressionPRAMConvergenceFlag and
// TestEvalModesBitEqualAcrossBackends, and two small machines.
func FuzzMasParMatchesReference(f *testing.F) {
	english, demo := grammars.English(), grammars.PaperDemo()
	f.Fuzz(func(t *testing.T, grammar uint8, gseed, sseed uint64, n, gang, dups, pes uint8, perConstraint bool) {
		var g *cdg.Grammar
		switch grammar % 3 {
		case 0:
			g = english
		case 1:
			g = demo
		default:
			g = grammars.Random(gseed)
		}
		words := make([][]string, 1+int(gang)%8)
		for b := range words {
			if b > 0 && dups&(1<<b) != 0 {
				words[b] = words[b-1]
				continue
			}
			words[b] = grammars.RandomSentence(g, sseed+uint64(b), 2+int(n)%5)
		}
		phys := 32 << (pes % 10)
		p := NewParser(g, WithPEs(phys), WithConsistencyPerConstraint(perConstraint))
		serial := NewParser(g, WithBackend(Serial))
		for b := range words {
			res, err := p.Parse(words[b])
			if err != nil {
				t.Fatalf("member %d %v: %v", b, words[b], err)
			}
			ref, err := serial.Parse(words[b])
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Network.EqualState(res.Network) {
				t.Fatalf("member %d of %d %v (%d PEs, per-constraint %v): network differs from serial\nserial:\n%s\nmaspar:\n%s",
					b, len(words), words[b], phys, perConstraint, ref.Network.Render(), res.Network.Render())
			}
			c := res.Counters
			plan := PlanMasPar(g, len(words[b]), phys, maspar.DefaultCosts(), int(c.FilterIterations))
			if c.Cycles != plan.Cycles || c.ScanOps != plan.Scans || c.RouterOps != plan.Routers ||
				c.Processors != uint64(plan.V) || c.VirtualLayers != uint64(plan.Layers) {
				t.Fatalf("member %d of %d %v (%d PEs, per-constraint %v, %d rounds): counters differ from the plan\nplan: cycles=%d scans=%d routers=%d processors=%d layers=%d\nmaspar: cycles=%d scans=%d routers=%d processors=%d layers=%d",
					b, len(words), words[b], phys, perConstraint, c.FilterIterations,
					plan.Cycles, plan.Scans, plan.Routers, plan.V, plan.Layers,
					c.Cycles, c.ScanOps, c.RouterOps, c.Processors, c.VirtualLayers)
			}
		}
		checkHoistedMatchesPerPE(t, g, strings.Join(words[0], " "), phys, perConstraint)
	})
}

// TestQuickDifferentialRandomGrammars is the heavyweight confidence
// test: on randomly generated CDG grammars and sentences, the serial,
// P-RAM, and MasPar engines must produce bit-identical final networks,
// and every extracted parse must genuinely satisfy the grammar.
func TestQuickDifferentialRandomGrammars(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64) bool {
		g := grammars.Random(seed)
		for trial := uint64(0); trial < 2; trial++ {
			n := 2 + int((seed+trial)%4) // 2..5 words
			words := grammars.RandomSentence(g, seed*31+trial, n)

			ref, err := NewParser(g, WithBackend(Serial)).Parse(words)
			if err != nil {
				t.Logf("seed %d serial: %v", seed, err)
				return false
			}
			for _, backend := range []Backend{PRAM, MasPar} {
				got, err := NewParser(g, WithBackend(backend)).Parse(words)
				if err != nil {
					t.Logf("seed %d %v: %v", seed, backend, err)
					return false
				}
				if !ref.Network.EqualState(got.Network) {
					t.Logf("seed %d words %v: %v disagrees with serial\nserial:\n%s\n%v:\n%s",
						seed, words, backend, ref.Network.Render(), backend, got.Network.Render())
					return false
				}
			}
			for _, p := range ref.Parses(8) {
				if !p.Satisfies(g) {
					t.Logf("seed %d words %v: extracted parse violates grammar", seed, words)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRegressionPRAMConvergenceFlag pins a bug the random-grammar fuzz
// caught: the P-RAM engine computed its filtering convergence flag
// *after* the elimination step had already cleared the domain bits, so
// the flag never rose and filtering always stopped after one round.
// This seed needs a second round; all engines must agree on it.
func TestRegressionPRAMConvergenceFlag(t *testing.T) {
	g := grammars.Random(14791735527896900715)
	words := []string{"w0", "w1", "w0", "w2", "w1"}
	ref, err := NewParser(g, WithBackend(Serial)).Parse(words)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{PRAM, MasPar, Mesh} {
		got, err := NewParser(g, WithBackend(b)).Parse(words)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Network.EqualState(got.Network) {
			t.Errorf("%v differs from serial on the regression seed", b)
		}
	}
}

// TestQuickVirtualizationInvariance: the physical PE count never
// changes the parse, only the layer count and cycle price.
func TestQuickVirtualizationInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		g := grammars.Random(seed)
		words := grammars.RandomSentence(g, seed*5+2, 3)
		ref, err := NewParser(g, WithBackend(MasPar)).Parse(words)
		if err != nil {
			return false
		}
		phys := 32 << (seed % 6) // 32..1024
		small, err := NewParser(g, WithBackend(MasPar), WithPEs(phys)).Parse(words)
		if err != nil {
			return false
		}
		if !ref.Network.EqualState(small.Network) {
			t.Logf("seed %d: %d-PE machine changed the result", seed, phys)
			return false
		}
		return small.Counters.VirtualLayers >= ref.Counters.VirtualLayers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAcceptanceMonotoneInConstraints: dropping the network's
// domains can only shrink under refinement — parse counts never grow
// as more constraints apply. Checked indirectly: bounded-filter results
// are a superset of fixpoint-filter results.
func TestQuickFilterBoundSuperset(t *testing.T) {
	f := func(seed uint64) bool {
		g := grammars.Random(seed)
		words := grammars.RandomSentence(g, seed*7+3, 3)
		bounded, err := NewParser(g, WithBackend(Serial), WithMaxFilterIters(1)).Parse(words)
		if err != nil {
			return false
		}
		full, err := NewParser(g, WithBackend(Serial)).Parse(words)
		if err != nil {
			return false
		}
		// Every live value at fixpoint is live under the bound.
		for gr := 0; gr < full.Network.Space().NumRoles(); gr++ {
			if !full.Network.Domain(gr).IsSubset(bounded.Network.Domain(gr)) {
				return false
			}
		}
		// And the parse sets are identical — filtering never changes
		// the solution set, only the network's explicit tightness.
		return len(full.Parses(0)) == len(bounded.Parses(0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
