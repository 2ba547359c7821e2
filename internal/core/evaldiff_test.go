package core

import (
	"context"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/latticeserve"
	"repro/internal/metrics"
)

// TestEvalModesBitEqualAcrossBackends is the PR's acceptance
// differential: the compiled bytecode VM is an optimization layer, so
// flipping every engine to the AST reference interpreter
// (cdg.SetEvalUseAST) must change nothing observable — not the
// fixpoint network, and not the per-sentence work accounting
// (constraint checks, matrix writes, simulated cycles, scan ops). The
// counters are computed by the drivers from constraint VERDICTS, never
// from how many bytecode evaluations a span sweep happened to run, so
// they are bit-equal by construction; this test pins that contract
// across every backend on grammars that exercise all the fused
// superinstruction shapes.
func TestEvalModesBitEqualAcrossBackends(t *testing.T) {
	cases := []struct {
		name  string
		g     *cdg.Grammar
		words []string
	}{
		{"paper-demo", grammars.PaperDemo(), grammars.PaperSentence()},
		{"english", grammars.English(), []string{"the", "dog", "saw", "the", "man"}},
		{"english-reject", grammars.English(), []string{"dog", "the", "saw"}},
		{"random-17", grammars.Random(17), grammars.RandomSentence(grammars.Random(17), 3, 3)},
	}
	backends := []Backend{Serial, PRAM, MasPar, Mesh}
	for _, tc := range cases {
		for _, b := range backends {
			parse := func() *Result {
				res, err := NewParser(tc.g, WithBackend(b)).Parse(tc.words)
				if err != nil {
					t.Fatalf("%s on %v: %v", tc.name, b, err)
				}
				return res
			}
			compiled := parse()
			prev := cdg.SetEvalUseAST(true)
			ast := parse()
			cdg.SetEvalUseAST(prev)
			if !compiled.Network.EqualState(ast.Network) {
				t.Errorf("%s on %v: compiled fixpoint differs from AST", tc.name, b)
			}
			if *compiled.Counters != *ast.Counters {
				t.Errorf("%s on %v: counters differ\ncompiled: %+v\nast:      %+v",
					tc.name, b, *compiled.Counters, *ast.Counters)
			}
		}

		// The incremental lattice engine drives the checkers itself
		// (snapshot extension evaluates constraints only on new role
		// values); its accounting must be eval-mode-independent too.
		lat := func() (*latticeserve.PathResult, metrics.Counters) {
			eng := latticeserve.New(latticeserve.Config{PrefixEntries: -1})
			res, err := eng.ParsePathContext(context.Background(), latticeserve.Request{
				Grammar:    tc.g,
				GrammarKey: tc.name,
				NoCache:    true,
			}, tc.words)
			if err != nil {
				t.Fatalf("%s lattice: %v", tc.name, err)
			}
			return res, *res.Counters
		}
		lcomp, lcompCtr := lat()
		prev := cdg.SetEvalUseAST(true)
		last, lastCtr := lat()
		cdg.SetEvalUseAST(prev)
		if lcomp.Accepted != last.Accepted || lcomp.Ambiguous != last.Ambiguous ||
			len(lcomp.Parses) != len(last.Parses) {
			t.Errorf("%s lattice: outcomes differ between eval modes", tc.name)
		}
		if lcompCtr != lastCtr {
			t.Errorf("%s lattice: counters differ\ncompiled: %+v\nast:      %+v",
				tc.name, lcompCtr, lastCtr)
		}
	}
}
