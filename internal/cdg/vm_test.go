package cdg

import (
	"fmt"
	"testing"
)

// vmGrammar is tinyGrammar (constraint_test.go) — three labels, two
// roles, two categories — which is enough to reach every opcode.
func vmGrammar(t *testing.T) *Grammar { return tinyGrammar(t) }

// allRefs enumerates role-value references over the sentence, valid and
// degenerate alike: both evaluators must agree on all of them.
func allRefs(s *Sentence) []RVRef {
	var refs []RVRef
	for pos := 1; pos <= s.Len(); pos++ {
		for role := RoleID(0); role < 2; role++ {
			for lab := LabelID(0); lab < 3; lab++ {
				for mod := 0; mod <= s.Len(); mod++ {
					m := mod
					if mod == 0 {
						m = NilMod
					}
					refs = append(refs, RVRef{Pos: pos, Role: role, Lab: lab, Mod: m})
				}
			}
		}
	}
	return refs
}

// vmTestSources exercises every lowering path: plain access-compare,
// integer order, and/or/not chains, constant folding, per-pair cat
// reads, and the leaves with no fused form — sentence-only (word N)
// reads and word-string equality — which send the whole constraint to
// the AST interpreter (astOnlySources).
var vmTestSources = []string{
	"(if (eq (lab x) A) (eq (mod x) nil))",
	"(if (gt (pos x) 1) (lt (mod x) (pos x)))",
	"(if (and (eq (lab x) A) (gt (pos x) 1)) (or (eq (mod x) nil) (eq (mod x) 1)))",
	"(if (not (eq (lab x) B)) (eq (role x) r1))",
	"(if (eq (role x) r2) (eq (lab x) C))",
	"(if (eq 1 1) (eq (lab x) A))",
	"(if (gt 2 3) (eq (lab x) A))",
	"(if (eq (cat (word 1)) ca) (eq (lab x) A))",
	"(if (eq (cat (word 9)) ca) (eq (lab x) A))",
	"(if (eq (cat (word (pos x))) cb) (eq (lab x) B))",
	"(if (eq (word (pos x)) (word 1)) (eq (lab x) A))",
	"(if (eq (mod x) (pos x)) (not (eq (lab x) C)))",
	"(if (and (eq (lab x) A) (eq (cat (word 2)) cb) (gt (pos x) 0)) (eq (mod x) nil))",
	"(if (or (eq (word 1) (word 2)) (eq (lab x) B)) (lt (pos x) 9))",
}

var vmTestBinarySources = []string{
	"(if (eq (lab x) A) (gt (pos y) (pos x)))",
	"(if (eq (mod x) (pos y)) (eq (lab y) C))",
	"(if (and (eq (role x) r1) (eq (role y) r2)) (or (eq (mod y) nil) (gt (mod y) (mod x))))",
	"(if (eq (word (pos x)) (word (pos y))) (eq (lab x) (lab y)))",
	"(if (not (eq (pos x) (pos y))) (not (eq (mod x) (pos y))))",
}

// astOnlySources are the vmTestSources and vmTestBinarySources with a
// leaf that has no fused form: compileProg declines them.
var astOnlySources = map[string]bool{
	"(if (eq (cat (word 1)) ca) (eq (lab x) A))":                                       true,
	"(if (eq (cat (word 9)) ca) (eq (lab x) A))":                                       true,
	"(if (eq (word (pos x)) (word 1)) (eq (lab x) A))":                                 true,
	"(if (and (eq (lab x) A) (eq (cat (word 2)) cb) (gt (pos x) 0)) (eq (mod x) nil))": true,
	"(if (or (eq (word 1) (word 2)) (eq (lab x) B)) (lt (pos x) 9))":                   true,
	"(if (eq (word (pos x)) (word (pos y))) (eq (lab x) (lab y)))":                     true,
}

// compileTier compiles src and checks its tier: a flat program, or nil
// for the astOnlySources.
func compileTier(t *testing.T, g *Grammar, src string) *Constraint {
	t.Helper()
	c := compile(t, g, src)
	if got, want := c.prog != nil, !astOnlySources[src]; got != want {
		t.Errorf("%q: compiled = %v, want %v", src, got, want)
	}
	return c
}

// TestCompiledMatchesAST pins the tentpole contract on a hand-picked
// table: each constraint compiles or falls back as astOnlySources says,
// and for every (degenerate included) role-value reference the
// checker's verdict equals the reference interpreter's.
func TestCompiledMatchesAST(t *testing.T) {
	g := vmGrammar(t)
	for _, words := range [][]string{{"wa"}, {"wa", "wb"}, {"wb", "wb", "wa"}} {
		sent := tinySentence(t, g, words...)
		refs := allRefs(sent)
		for _, src := range vmTestSources {
			c := compileTier(t, g, src)
			ck := c.Bind(sent)
			env := &Env{Sent: sent}
			for _, x := range refs {
				env.X = x
				if got, want := ck.Check1(x), c.Satisfied(env); got != want {
					t.Fatalf("%q x=%v: compiled=%v ast=%v", src, x, got, want)
				}
			}
		}
		for _, src := range vmTestBinarySources {
			c := compileTier(t, g, src)
			ck := c.Bind(sent)
			env := &Env{Sent: sent}
			// Bounded pair sweep: stride through the square.
			for i := 0; i < len(refs); i += 7 {
				for j := 0; j < len(refs); j += 5 {
					env.X, env.Y = refs[i], refs[j]
					if got, want := ck.Check2(refs[i], refs[j]), c.Satisfied(env); got != want {
						t.Fatalf("%q x=%v y=%v: compiled=%v ast=%v", src, refs[i], refs[j], got, want)
					}
				}
			}
		}
	}
}

// TestSetEvalUseAST checks the differential-test hook: forcing AST mode
// makes Bind return an uncompiled checker with identical verdicts.
func TestSetEvalUseAST(t *testing.T) {
	g := vmGrammar(t)
	sent := tinySentence(t, g, "wa", "wb")
	c := compile(t, g, vmTestSources[0])
	prev := SetEvalUseAST(true)
	defer SetEvalUseAST(prev)
	ck := c.Bind(sent)
	if ck.Compiled() {
		t.Fatal("Bind under SetEvalUseAST(true) returned a compiled checker")
	}
	cmp := c.Bind(sent)
	SetEvalUseAST(false)
	ck2 := c.Bind(sent)
	if !ck2.Compiled() {
		t.Fatal("Bind after SetEvalUseAST(false) is not compiled")
	}
	for _, x := range allRefs(sent) {
		if cmp.Check1(x) != ck2.Check1(x) {
			t.Fatalf("AST and compiled disagree at %v", x)
		}
	}
	if got := SetEvalUseAST(false); got != false {
		t.Fatalf("SetEvalUseAST previous = %v, want false", got)
	}
}

// TestHoistingAndFolding inspects the compiled form: sentence-free
// antecedents fold away, and the dominant shapes fuse into
// superinstructions.
func TestHoistingAndFolding(t *testing.T) {
	g := vmGrammar(t)

	// (eq 1 1) folds to true: the antecedent emits nothing, and the
	// body starts with the consequent's fused test.
	c := compile(t, g, "(if (eq 1 1) (eq (lab x) A))")
	if c.prog == nil {
		t.Fatal("no program")
	}
	if op := c.prog.code[0].op; op != opFieldEqImmJF {
		t.Errorf("folded-true antecedent left code before the consequent: %v", c.prog.code)
	}
	// (gt 2 3) folds to false: the constraint holds vacuously, so the
	// body opens with its verdict.
	c = compile(t, g, "(if (gt 2 3) (eq (lab x) A))")
	if c.prog == nil {
		t.Fatal("no program")
	}
	if op := c.prog.code[0].op; op != opRetTrue {
		t.Errorf("folded-false antecedent does not return true first: %v", c.prog.code)
	}

	// The classic access-compare-antecedent shape must fuse into
	// immediate test-and-jumps.
	c = compile(t, g, "(if (eq (lab x) A) (eq (mod x) nil))")
	fused := false
	for _, in := range c.prog.code {
		if in.op >= opFieldEqImmJF && in.op <= opCatEqImmJT {
			fused = true
		}
	}
	if !fused {
		t.Errorf("no superinstruction in %v", c.prog.code)
	}
}

// TestNonFusableLeafFallsBack checks each kind of leaf that has no
// fused form — a sentence-only (word N) read deep in an and-chain, a
// word compared as a value, a comparison used as an operand, and a
// position immediate past maxImmPos: compilation must decline
// (prog == nil) and the checker must transparently fall back with
// identical verdicts.
func TestNonFusableLeafFallsBack(t *testing.T) {
	g := vmGrammar(t)
	sent := tinySentence(t, g, "wa", "wb", "wa")
	for _, src := range []string{
		"(if (and (eq (lab x) A) (eq (role x) r1) (eq (cat (word 3)) ca)) (eq (mod x) nil))",
		"(if (eq (lab x) A) (not (eq (word (mod x)) (word (pos x)))))",
		"(if (eq (eq (lab x) A) (eq (role x) r1)) (eq (mod x) nil))",
		fmt.Sprintf("(if (eq (lab x) A) (eq (mod x) %d))", maxImmPos+1),
	} {
		c := compile(t, g, src)
		if c.prog != nil {
			t.Errorf("%q: expected the AST fallback, got %v", src, c.prog.code)
			continue
		}
		ck := c.Bind(sent)
		if ck.Compiled() {
			t.Fatalf("%q: checker claims compiled with prog == nil", src)
		}
		env := &Env{Sent: sent}
		for _, x := range allRefs(sent) {
			env.X = x
			if ck.Check1(x) != c.Satisfied(env) {
				t.Fatalf("%q: fallback disagrees at %v", src, x)
			}
		}
	}
}

// TestCompiledCheckDoesNotAllocate enforces 0 allocs/op on the whole
// compiled hot path: Bind plus unary and binary checks.
func TestCompiledCheckDoesNotAllocate(t *testing.T) {
	g := vmGrammar(t)
	sent := tinySentence(t, g, "wa", "wb")
	u := compile(t, g, "(if (and (eq (cat (word (pos x))) ca) (eq (lab x) A)) (eq (mod x) nil))")
	b := compile(t, g, "(if (eq (lab x) A) (gt (pos y) (pos x)))")
	if u.prog == nil || b.prog == nil {
		t.Fatal("constraints did not compile")
	}
	x := RVRef{Pos: 1, Role: 0, Lab: 0, Mod: NilMod}
	y := RVRef{Pos: 2, Role: 0, Lab: 1, Mod: 1}
	var sink bool
	allocs := testing.AllocsPerRun(100, func() {
		uck := u.Bind(sent)
		bck := b.Bind(sent)
		sink = uck.Check1(x) != bck.Check2(x, y)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("compiled Bind+Check allocates %v per run, want 0", allocs)
	}
}

// benchGrammar is an English-fragment grammar whose constraints are
// the exact shapes of internal/grammars: category tests over
// (cat (word (pos x))), role/label gates, and modifiee/position
// comparisons. The benchmark must measure what the propagation loops
// actually evaluate, not a synthetic best case.
func benchGrammar(b *testing.B) *Grammar {
	g, err := NewBuilder().
		Labels("DET", "SUBJ", "OBJ", "ROOT", "NP", "S", "BLANK").
		Categories("det", "noun", "verb").
		Role("governor", "DET", "SUBJ", "OBJ", "ROOT").
		Role("needs", "NP", "S", "BLANK").
		Word("the", "det").
		Word("dog", "noun").
		Word("cat", "noun").
		Word("saw", "verb").
		Constraint("det-governor", `
			(if (and (eq (cat (word (pos x))) det) (eq (role x) governor))
			    (and (eq (lab x) DET) (not (eq (mod x) nil)) (gt (mod x) (pos x))))`).
		Constraint("det-needs", `
			(if (and (eq (cat (word (pos x))) det) (eq (role x) needs))
			    (and (eq (lab x) BLANK) (eq (mod x) nil)))`).
		Constraint("noun-governor", `
			(if (and (eq (cat (word (pos x))) noun) (eq (role x) governor))
			    (and (or (eq (lab x) SUBJ) (eq (lab x) OBJ)) (not (eq (mod x) nil))))`).
		Constraint("noun-needs", `
			(if (and (eq (cat (word (pos x))) noun) (eq (role x) needs))
			    (and (eq (lab x) NP) (not (eq (mod x) nil)) (lt (mod x) (pos x))))`).
		Constraint("verb-governor", `
			(if (and (eq (cat (word (pos x))) verb) (eq (role x) governor))
			    (and (eq (lab x) ROOT) (eq (mod x) nil)))`).
		Constraint("det-modifies-noun", `
			(if (and (eq (lab x) DET) (eq (mod x) (pos y)))
			    (eq (cat (word (pos y))) noun))`).
		Constraint("subj-attaches-verb-right", `
			(if (and (eq (lab x) SUBJ) (eq (mod x) (pos y)))
			    (and (eq (cat (word (pos y))) verb) (lt (pos x) (pos y))))`).
		Constraint("obj-attaches-verb-left", `
			(if (and (eq (lab x) OBJ) (eq (mod x) (pos y)))
			    (and (eq (cat (word (pos y))) verb) (gt (pos x) (pos y))))`).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkConstraintEval is the ISSUE's microbenchmark: the compiled
// VM against the AST reference interpreter over the grammar shapes and
// role-value sweeps of the real propagation inner loops (cn.ApplyUnary
// checks every constraint on every role value; ApplyBinary every
// binary constraint on every matrix pair). The acceptance bar is ≥5×
// with 0 allocs/op compiled.
func BenchmarkConstraintEval(b *testing.B) {
	g := benchGrammar(b)
	sent, err := Resolve(g, []string{"the", "dog", "saw", "the", "cat"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Every role value of the space, as the drivers enumerate them.
	sp := NewSpace(g, sent)
	var refs []RVRef
	for gr := 0; gr < sp.NumRoles(); gr++ {
		pos, r := sp.RoleAt(gr)
		for idx := 0; idx < sp.RVCount(r); idx++ {
			refs = append(refs, sp.RVRef(pos, r, idx))
		}
	}
	unary, binary := g.Unary(), g.Binary()
	for _, c := range append(append([]*Constraint(nil), unary...), binary...) {
		if c.prog == nil {
			b.Fatalf("constraint %s did not compile", c.Name)
		}
	}
	var sink int

	// The compiled side measures the span calls the propagation drivers
	// make (one bytecode sweep per role value row); the ast baselines
	// reproduce the pre-VM call pattern exactly: an Env hoisted outside
	// the sweep, rebound per role value, evaluated through
	// Constraint.Satisfied (the reference interpreter).
	b.Run("unary/compiled", func(b *testing.B) {
		b.ReportAllocs()
		cks := make([]Checker, len(unary))
		for k, c := range unary {
			cks[k] = c.Bind(sent)
		}
		out := make([]bool, len(refs))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for k := range cks {
				cks[k].Check1Span(refs, out)
				// out escapes into Check1Span, so the verdict stores are
				// not eliminable; touching one element keeps the span
				// itself live without timing a reduction loop.
				if out[0] {
					sink++
				}
			}
		}
	})
	b.Run("unary/ast", func(b *testing.B) {
		b.ReportAllocs()
		env := &Env{Sent: sent}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, c := range unary {
				for _, x := range refs {
					env.X = x
					if c.Satisfied(env) {
						sink++
					}
				}
			}
		}
	})
	b.Run("binary/compiled", func(b *testing.B) {
		b.ReportAllocs()
		cks := make([]Checker, len(binary))
		for k, c := range binary {
			cks[k] = c.Bind(sent)
		}
		out := make([]bool, len(refs))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for k := range cks {
				for _, x := range refs {
					cks[k].Check2Span(x, refs, out)
					if out[0] {
						sink++
					}
				}
			}
		}
	})
	b.Run("binary/ast", func(b *testing.B) {
		b.ReportAllocs()
		env := &Env{Sent: sent}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, c := range binary {
				for _, x := range refs {
					env.X = x
					for _, y := range refs {
						env.Y = y
						if c.Satisfied(env) {
							sink++
						}
					}
				}
			}
		}
	})
	_ = sink
}
