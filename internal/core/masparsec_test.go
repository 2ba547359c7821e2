package core

import (
	"context"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/maspar"
)

// runDemo executes the MasPar algorithm and returns the internal run
// state for invariant checks.
func runDemo(t *testing.T, words []string) *masparRun {
	t.Helper()
	g := grammars.PaperDemo()
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := maspar.New(maspar.PhysicalPEs, maspar.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := runMasParGang(context.Background(), []*cdg.Space{cdg.NewSpace(g, sent)}, m, false, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestMirrorInvariant checks the mirrored-storage contract of the
// layout: after a full parse, bits(v, lc, lr) == bits(transpose(v),
// lr, lc) for every active PE — both copies of each arc element agree.
func TestMirrorInvariant(t *testing.T) {
	run := runDemo(t, []string{"the", "program", "runs"})
	ly := run.ly
	for v := 0; v < ly.V(); v++ {
		if !ly.enabled(v) {
			continue
		}
		tr := transposeOf(ly, v)
		for lc := 0; lc < ly.L(); lc++ {
			for lr := 0; lr < ly.L(); lr++ {
				a := run.bitAt(v, lc, lr)
				b := run.bitAt(tr, lr, lc)
				if a != b {
					t.Fatalf("mirror mismatch at PE %d (lc=%d lr=%d): %d vs %d", v, lc, lr, a, b)
				}
			}
		}
	}
}

// TestAliveConsistency checks that, after the parse, aliveRow is the
// exact transpose image of aliveCol, and that every surviving arc
// element has both endpoints alive.
func TestAliveConsistency(t *testing.T) {
	run := runDemo(t, []string{"the", "program", "runs", "the", "machine"})
	ly := run.ly
	for v := 0; v < ly.V(); v++ {
		if !ly.enabled(v) {
			continue
		}
		tr := transposeOf(ly, v)
		for ls := 0; ls < ly.L(); ls++ {
			if run.aliveRowAt(v, ls) != run.aliveColAt(tr, ls) {
				t.Fatalf("aliveRow is not the transpose of aliveCol at PE %d slot %d", v, ls)
			}
		}
		for lc := 0; lc < ly.L(); lc++ {
			for lr := 0; lr < ly.L(); lr++ {
				if run.bitAt(v, lc, lr) == 1 {
					if run.aliveColAt(v, lc) != 1 || run.aliveRowAt(v, lr) != 1 {
						t.Fatalf("surviving bit under dead role value at PE %d", v)
					}
				}
			}
		}
	}
}

// TestAliveColUniformWithinBlock: every active PE of a column block
// holds the same aliveCol vector (the copy-scan distributed verdicts to
// the whole block).
func TestAliveColUniformWithinBlock(t *testing.T) {
	run := runDemo(t, []string{"the", "program", "runs"})
	ly := run.ly
	for c := 0; c < ly.S(); c++ {
		ref := -1
		for r := 0; r < ly.S(); r++ {
			v := c*ly.S() + r
			if !ly.enabled(v) {
				continue
			}
			if ref < 0 {
				ref = v
				continue
			}
			for ls := 0; ls < ly.L(); ls++ {
				if run.aliveColAt(v, ls) != run.aliveColAt(ref, ls) {
					t.Fatalf("block %d: aliveCol differs between PEs %d and %d", c, ref, v)
				}
			}
		}
	}
}

// TestRoundsMatchCounters: the run's round count lands in the counters
// as FilterIterations.
func TestRoundsMatchCounters(t *testing.T) {
	run := runDemo(t, []string{"the", "program", "runs"})
	c := run.countersFor(0)
	if c.FilterIterations != uint64(run.rounds[0]) {
		t.Errorf("FilterIterations = %d, rounds = %d", c.FilterIterations, run.rounds[0])
	}
	if c.Processors != uint64(run.ly.V()) {
		t.Error("Processors mismatch")
	}
}

// TestAttributionCoversEveryStage: one MasPar parse with WithAttribution
// reports time in each stage. The unary sweep counts as eval and a
// round's sweep as router, since it does the mirror's work.
func TestAttributionCoversEveryStage(t *testing.T) {
	var attr Attribution
	parseOn(t, MasPar, grammars.PaperSentence(), WithAttribution(&attr))
	if attr.EvalNs.Load() <= 0 || attr.ScanNs.Load() <= 0 || attr.RouterNs.Load() <= 0 {
		t.Errorf("attribution eval=%dns scan=%dns router=%dns, want each > 0",
			attr.EvalNs.Load(), attr.ScanNs.Load(), attr.RouterNs.Load())
	}
}
