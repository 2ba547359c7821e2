package cdg_test

import (
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
)

// astOnlyBuiltins names the built-in grammar constraints with no flat
// program. ww's first-points-right-same-cat compares two words'
// categories, (eq (cat (word (pos x))) (cat (word (mod x)))), which no
// fused test encodes.
var astOnlyBuiltins = map[string]bool{
	"ww/first-points-right-same-cat": true,
}

// TestBuiltinGrammarsCompileFlat pins the compiled census of the
// shipped grammars: every constraint but astOnlyBuiltins compiles to a
// flat program, so a grammar edit that drops a hot constraint onto the
// AST interpreter fails here. The span sweeps the propagation loops
// call must also agree with the interpreter on a few random sentences.
func TestBuiltinGrammarsCompileFlat(t *testing.T) {
	for _, name := range grammars.Names() {
		g, err := grammars.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			words := grammars.RandomSentence(g, seed, 1+int(seed))
			sent, err := cdg.Resolve(g, words, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			refs := sweepRefs(cdg.NewSpace(g, sent))
			env := &cdg.Env{Sent: sent}
			out := make([]bool, len(refs))
			rev := make([]bool, len(refs))
			check := func(c *cdg.Constraint) cdg.Checker {
				ck := c.Bind(sent)
				key := name + "/" + c.Name
				if ck.Compiled() == astOnlyBuiltins[key] {
					t.Errorf("%s: compiled = %v, want %v", key, ck.Compiled(), !astOnlyBuiltins[key])
				}
				return ck
			}
			for _, c := range g.Unary() {
				ck := check(c)
				ck.Check1Span(refs, out)
				for i, x := range refs {
					env.X = x
					if want := c.Satisfied(env); out[i] != want {
						t.Fatalf("%s/%s %v: Check1Span=%v, AST=%v", name, c.Name, x, out[i], want)
					}
				}
			}
			for _, c := range g.Binary() {
				ck := check(c)
				for _, x := range refs {
					ck.Check2Span(x, refs, out)
					ck.Check2SpanRev(x, refs, rev)
					for j, y := range refs {
						env.X, env.Y = x, y
						if want := c.Satisfied(env); out[j] != want {
							t.Fatalf("%s/%s (%v,%v): Check2Span=%v, AST=%v", name, c.Name, x, y, out[j], want)
						}
						env.X, env.Y = y, x
						if want := c.Satisfied(env); rev[j] != want {
							t.Fatalf("%s/%s (%v,%v): Check2SpanRev=%v, AST=%v", name, c.Name, y, x, rev[j], want)
						}
					}
				}
			}
		}
	}
}
