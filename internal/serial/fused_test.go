package serial

import (
	"testing"
	"testing/quick"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/grammars"
	"repro/internal/workload"
)

// parseFused is Parse with the binary phase fused the way latticeserve
// builds its prefix snapshots: every unary constraint, then every binary
// constraint in one cn.ApplyBinaryAll sweep with no consistency pass in
// between, then filtering to fixpoint.
func parseFused(g *cdg.Grammar, words []string) (*cn.Network, error) {
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		return nil, err
	}
	nw := cn.New(cdg.NewSpace(g, sent))
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	nw.ApplyBinaryAll(g.Binary())
	nw.Filter(0)
	return nw, nil
}

// TestFusedMatchesDefault: one fused sweep of every binary constraint
// reaches the same fixpoint as the paper's per-constraint sweeps, each
// followed by a consistency pass. Matrix bits only go 1→0 and each
// pair's verdict per constraint is independent of the others, which is
// the argument latticeserve's snapshots rely on.
func TestFusedMatchesDefault(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *cdg.Grammar
		words []string
	}{
		{"demo", grammars.PaperDemo(), workload.DemoSentence(6)},
		{"english", grammars.English(), workload.AmbiguousEnglish(1)},
	} {
		def, err := ParseWords(tc.g, tc.words, Options{Filter: true})
		if err != nil {
			t.Fatal(err)
		}
		fus, err := parseFused(tc.g, tc.words)
		if err != nil {
			t.Fatal(err)
		}
		if !def.Network.EqualState(fus) {
			t.Errorf("%s: fused propagation changed the fixpoint", tc.name)
		}
		// Measured trade-off (not an optimization claim): the fused
		// sweep skips the interleaved consistency passes, so it runs
		// over un-shrunk domains and typically performs MORE constraint
		// checks. What it saves is k_b−1 pair-enumeration sweeps.
		if fus.Counters.ConstraintChecks < def.Counters.ConstraintChecks {
			t.Logf("%s: fused checks %d unexpectedly below per-constraint %d (fine, just noting)",
				tc.name, fus.Counters.ConstraintChecks, def.Counters.ConstraintChecks)
		}
	}
}

// TestQuickFusedMatchesDefault fuzzes the equivalence.
func TestQuickFusedMatchesDefault(t *testing.T) {
	f := func(seed uint64) bool {
		g := grammars.Random(seed)
		words := grammars.RandomSentence(g, seed*7+1, 2+int(seed%3))
		def, err := ParseWords(g, words, Options{Filter: true})
		if err != nil {
			return false
		}
		fus, err := parseFused(g, words)
		if err != nil {
			return false
		}
		return def.Network.EqualState(fus)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
