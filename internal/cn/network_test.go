package cn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/workload"
)

// testGrammar builds a compact grammar exercising the network
// machinery: 2 roles, 2-3 labels each.
func testGrammar(t *testing.T) *cdg.Grammar {
	t.Helper()
	b := cdg.NewBuilder().
		Labels("H", "D", "Z").
		Categories("w", "v").
		Role("g", "H", "D").
		Role("n", "Z").
		Word("w", "w").
		Word("v", "v")
	// v-words are heads (H-nil); w-words are dependents (D pointing at
	// some word).
	b.Constraint("v-head", `
		(if (and (eq (cat (word (pos x))) v) (eq (role x) g))
		    (and (eq (lab x) H) (eq (mod x) nil)))`)
	b.Constraint("w-dep", `
		(if (and (eq (cat (word (pos x))) w) (eq (role x) g))
		    (and (eq (lab x) D) (not (eq (mod x) nil))))`)
	b.Constraint("n-z", `
		(if (eq (role x) n)
		    (and (eq (lab x) Z) (eq (mod x) nil)))`)
	b.Constraint("dep-targets-head", `
		(if (and (eq (lab x) D) (eq (role y) g) (eq (mod x) (pos y)))
		    (eq (lab y) H))`)
	return b.MustBuild()
}

func buildNetwork(t *testing.T, g *cdg.Grammar, words ...string) *Network {
	t.Helper()
	return New(spaceOf(t, g, words))
}

func spaceOf(t testing.TB, g *cdg.Grammar, words []string) *cdg.Space {
	t.Helper()
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cdg.NewSpace(g, sent)
}

func TestNewInitialState(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	sp := nw.Space()
	if len(nw.Arcs()) != sp.NumArcs() {
		t.Errorf("arcs = %d, want %d", len(nw.Arcs()), sp.NumArcs())
	}
	// Initial domains exclude self-modification only.
	gRole, _ := g.RoleByName("g")
	dom := nw.Domain(sp.GlobalRole(1, gRole))
	// 2 labels × 3 mods (nil,2 — not 1) → indices with mod != 1.
	if dom.Count() != 2*2 {
		t.Errorf("initial domain = %d, want 4: %v", dom.Count(), nw.DomainStrings(sp.GlobalRole(1, gRole)))
	}
	// All live pairs start compatible.
	for _, arc := range nw.Arcs() {
		nw.Domain(arc.A).ForEach(func(i int) {
			nw.Domain(arc.B).ForEach(func(j int) {
				if !arc.M.Get(i, j) {
					t.Fatalf("initial matrix has a 0 at live pair (%d,%d)", i, j)
				}
			})
		})
	}
}

func TestEliminateZeroesRowsAndCols(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	sp := nw.Space()
	gRole, _ := g.RoleByName("g")
	gr := sp.GlobalRole(1, gRole)
	victim := nw.Domain(gr).Ones()[0]
	nw.Eliminate(gr, victim)
	if nw.Domain(gr).Get(victim) {
		t.Fatal("domain bit survived")
	}
	for other := 0; other < sp.NumRoles(); other++ {
		if other == gr {
			continue
		}
		arc, isRow := nw.ArcBetween(gr, other)
		if isRow {
			if arc.M.RowAny(victim) {
				t.Error("row not zeroed")
			}
		} else if arc.M.ColAny(victim) {
			t.Error("col not zeroed")
		}
	}
	// Idempotent.
	before := nw.Counters.Eliminations
	nw.Eliminate(gr, victim)
	if nw.Counters.Eliminations != before {
		t.Error("double elimination counted twice")
	}
}

func TestArcBetweenPanicsOnSelf(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self arc")
		}
	}()
	nw.ArcBetween(1, 1)
}

func TestApplyUnaryPanicsOnBinary(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.ApplyUnary(g.Binary()[0])
}

func TestApplyBinaryPanicsOnUnary(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.ApplyBinary(g.Unary()[0])
}

func TestPipelineOnTestGrammar(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v", "w")
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
		nw.ConsistencyPass()
	}
	nw.Filter(0)
	if !nw.AllRolesAlive() {
		t.Fatal("network should be accepted")
	}
	// Both w words must point at the single head v@2.
	sp := nw.Space()
	gRole, _ := g.RoleByName("g")
	for _, pos := range []int{1, 3} {
		vals := nw.DomainStrings(sp.GlobalRole(pos, gRole))
		if len(vals) != 1 || vals[0] != "D-2" {
			t.Errorf("pos %d domain = %v, want [D-2]", pos, vals)
		}
	}
	parses := nw.ExtractParses(0)
	if len(parses) != 1 {
		t.Fatalf("parses = %d", len(parses))
	}
	if !parses[0].Satisfies(g) {
		t.Error("parse violates constraints")
	}
	edges := parses[0].Edges()
	if len(edges) != 2 {
		t.Errorf("edges = %v", edges)
	}
}

func TestRejectionEmptiesARole(t *testing.T) {
	g := testGrammar(t)
	// No head at all: both words are dependents.
	nw := buildNetwork(t, g, "w", "w")
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
		nw.ConsistencyPass()
	}
	nw.Filter(0)
	if nw.AllRolesAlive() {
		t.Error("w w should be rejected")
	}
	if nw.HasParse() {
		t.Error("no parse should exist")
	}
	if nw.ExtractParses(0) != nil {
		t.Error("extraction should return nothing")
	}
}

func TestMonotonicity(t *testing.T) {
	// Propagation only ever shrinks domains (a quick property over the
	// pipeline stages).
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v", "w")
	snapshot := func() []int {
		var out []int
		for gr := 0; gr < nw.Space().NumRoles(); gr++ {
			out = append(out, nw.Domain(gr).Count())
		}
		return out
	}
	prev := snapshot()
	step := func(name string) {
		cur := snapshot()
		for i := range cur {
			if cur[i] > prev[i] {
				t.Fatalf("%s grew domain %d: %d -> %d", name, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
		step("unary " + c.Name)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
		step("binary " + c.Name)
		nw.ConsistencyPass()
		step("consistency")
	}
	nw.Filter(0)
	step("filter")
}

func TestFilterIdempotent(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v", "w")
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
	}
	nw.Filter(0)
	before := nw.Clone()
	// A second filtering pass must change nothing.
	passes := nw.Filter(0)
	if passes != 1 {
		t.Errorf("re-filter took %d passes, want 1 (no-op)", passes)
	}
	if !nw.EqualState(before) {
		t.Error("filter not idempotent")
	}
}

func TestFilterBounded(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "w", "w")
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
	}
	if got := nw.Filter(2); got > 2 {
		t.Errorf("bounded filter ran %d passes", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	c := nw.Clone()
	if !nw.EqualState(c) {
		t.Fatal("clone differs")
	}
	gr := 0
	idx := nw.Domain(gr).Ones()[0]
	nw.Eliminate(gr, idx)
	if nw.EqualState(c) {
		t.Error("mutation leaked into clone")
	}
}

func TestNewShellEmpty(t *testing.T) {
	g := testGrammar(t)
	sent, _ := cdg.Resolve(g, []string{"w", "v"}, nil)
	sp := cdg.NewSpace(g, sent)
	shell := NewShell(sp)
	if shell.AllRolesAlive() {
		t.Error("shell domains should be empty")
	}
	if len(shell.Arcs()) != sp.NumArcs() {
		t.Error("shell arcs missing")
	}
	for _, a := range shell.Arcs() {
		if a.M.Count() != 0 {
			t.Error("shell matrix not zero")
		}
	}
}

func TestRenderContainsDomains(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v")
	out := nw.Render()
	for _, want := range []string{"w/1", "v/2", "g:", "n:", "H-nil", "Z-nil"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	arcOut := nw.RenderArc(0, 2)
	if !strings.Contains(arcOut, "arc") || !strings.Contains(arcOut, "1") {
		t.Errorf("RenderArc:\n%s", arcOut)
	}
	if nw.Stats() == "" {
		t.Error("Stats empty")
	}
}

// TestQuickExtractionMatchesBruteForce compares backtracking extraction
// with brute-force enumeration on small random networks.
func TestQuickExtractionMatchesBruteForce(t *testing.T) {
	g := testGrammar(t)
	f := func(seed int64) bool {
		s := seed | 1
		rnd := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v := int(s % int64(n))
			if v < 0 {
				v = -v
			}
			return v
		}
		words := make([]string, 2+rnd(2))
		for i := range words {
			if rnd(2) == 0 {
				words[i] = "w"
			} else {
				words[i] = "v"
			}
		}
		nw := buildNetwork(t, g, words...)
		// Random extra matrix zeroing to create interesting structure.
		for k := 0; k < 10; k++ {
			arc := nw.Arcs()[rnd(len(nw.Arcs()))]
			rows, cols := arc.M.Rows(), arc.M.Cols()
			arc.M.ClearBit(rnd(rows), rnd(cols))
		}
		got := len(nw.ExtractParses(0))
		want := bruteForceCount(nw)
		if got != want {
			t.Logf("words=%v got=%d want=%d", words, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceCount enumerates every combination of live role values and
// counts the pairwise-compatible ones.
func bruteForceCount(nw *Network) int {
	total := nw.Space().NumRoles()
	domains := make([][]int, total)
	for gr := 0; gr < total; gr++ {
		domains[gr] = nw.Domain(gr).Ones()
	}
	count := 0
	choice := make([]int, total)
	var rec func(d int)
	rec = func(d int) {
		if d == total {
			count++
			return
		}
		for _, idx := range domains[d] {
			ok := true
			for p := 0; p < d; p++ {
				if !nw.Compatible(p, choice[p], d, idx) {
					ok = false
					break
				}
			}
			if ok {
				choice[d] = idx
				rec(d + 1)
			}
		}
	}
	rec(0)
	return count
}

func TestExtractParsesLimit(t *testing.T) {
	g := testGrammar(t)
	nw := buildNetwork(t, g, "w", "v", "v")
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
		nw.ConsistencyPass()
	}
	nw.Filter(0)
	all := nw.ExtractParses(0)
	if len(all) < 2 {
		t.Skipf("want an ambiguous network, got %d parses", len(all))
	}
	one := nw.ExtractParses(1)
	if len(one) != 1 {
		t.Errorf("limit=1 returned %d", len(one))
	}
}

// TestFilterCtx pins the cancellation contract of the filtering loop: a
// live context filters exactly like Filter, a dead one stops before the
// next pass and reports the context error.
func TestFilterCtx(t *testing.T) {
	g := testGrammar(t)
	build := func() *Network {
		sent, err := cdg.Resolve(g, []string{"w", "v", "w"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nw := New(cdg.NewSpace(g, sent))
		for _, c := range g.Unary() {
			nw.ApplyUnary(c)
		}
		for _, c := range g.Binary() {
			nw.ApplyBinary(c)
			nw.ConsistencyPass()
		}
		return nw
	}

	live := build()
	passes, err := live.FilterCtx(context.Background(), 0)
	if err != nil || passes < 1 {
		t.Fatalf("live filter: passes=%d err=%v", passes, err)
	}
	ref := build()
	if got := ref.Filter(0); got != passes {
		t.Errorf("Filter=%d FilterCtx=%d, should agree", got, passes)
	}
	if !live.EqualState(ref) {
		t.Error("FilterCtx and Filter reached different fixpoints")
	}

	cancelled := build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	passes, err = cancelled.FilterCtx(ctx, 0)
	if passes != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled filter: passes=%d err=%v, want 0/Canceled", passes, err)
	}
}

// The per-value reference. Before the network removed role values and
// tested their support a word at a time, ApplyUnary, ConsistencyPass and
// Eliminate walked one value, one arc and one row or column at a time.
// Those loops are kept here, and every step of the word-wise network is
// held to them: the domains, every matrix bit (dead rows included), the
// return values and all counters.

// refEliminate removes role value idx of global role gr by zeroing its
// row or column in each incident arc, one arc at a time.
func refEliminate(nw *Network, gr, idx int) {
	if !nw.domains[gr].Get(idx) {
		return
	}
	nw.domains[gr].ClearBit(idx)
	nw.Counters.Eliminations++
	for other := 0; other < len(nw.domains); other++ {
		if other == gr {
			continue
		}
		arc, isRow := nw.ArcBetween(gr, other)
		if isRow {
			arc.M.ZeroRow(idx)
		} else {
			arc.M.ZeroCol(idx)
		}
		_, r := nw.sp.RoleAt(other)
		nw.Counters.MatrixWrites += uint64(nw.sp.RVCount(r))
	}
}

// refSupported reports whether role value idx of global role gr has a 1
// in its row (or column) of every incident arc, charging one support
// check per arc up to the first that has none.
func refSupported(nw *Network, gr, idx int) bool {
	for other := 0; other < len(nw.domains); other++ {
		if other == gr {
			continue
		}
		nw.Counters.SupportChecks++
		arc, isRow := nw.ArcBetween(gr, other)
		if isRow {
			if !arc.M.RowAny(idx) {
				return false
			}
		} else if !arc.M.ColAny(idx) {
			return false
		}
	}
	return true
}

func refApplyUnary(nw *Network, c *cdg.Constraint) int {
	ck := c.Bind(nw.sp.Sentence())
	eliminated := 0
	for gr := range nw.domains {
		pos, r := nw.sp.RoleAt(gr)
		for _, idx := range nw.domains[gr].Ones() {
			nw.Counters.ConstraintChecks++
			if !ck.Check1(nw.sp.RVRef(pos, r, idx)) {
				refEliminate(nw, gr, idx)
				eliminated++
			}
		}
	}
	return eliminated
}

func refConsistencyPass(nw *Network) int {
	type victim struct{ gr, idx int }
	var victims []victim
	for gr := range nw.domains {
		nw.domains[gr].ForEach(func(idx int) {
			if !refSupported(nw, gr, idx) {
				victims = append(victims, victim{gr, idx})
			}
		})
	}
	for _, v := range victims {
		refEliminate(nw, v.gr, v.idx)
	}
	return len(victims)
}

func refFilter(nw *Network, maxIters int) int {
	passes := 0
	for maxIters <= 0 || passes < maxIters {
		passes++
		nw.Counters.FilterIterations++
		if refConsistencyPass(nw) == 0 {
			break
		}
	}
	return passes
}

// stateDiff describes the first difference between nw and its reference
// twin ref, or returns "" when domains, every matrix bit and all
// counters agree.
func stateDiff(nw, ref *Network) string {
	for gr := range nw.domains {
		if !nw.domains[gr].Equal(ref.domains[gr]) {
			return fmt.Sprintf("role %d domain %v, reference %v", gr, nw.domains[gr], ref.domains[gr])
		}
	}
	for k, arc := range nw.arcs {
		if !arc.M.Equal(ref.arcs[k].M) {
			return fmt.Sprintf("arc (%d,%d) matrix differs", arc.A, arc.B)
		}
	}
	if *nw.Counters != *ref.Counters {
		return fmt.Sprintf("counters %+v, reference %+v", *nw.Counters, *ref.Counters)
	}
	return ""
}

// checkAgainstReference runs the serial pipeline on sp twice, through
// the network's steps and through the per-value reference, and reports
// the first step after which the two differ or the network holds a bit
// off its live pairs. The steps are every unary constraint, every
// binary constraint followed by one consistency pass, filtering bounded
// by filterBound passes (<= 0: to fixpoint), and last an Eliminate of
// the first live value of every role.
func checkAgainstReference(sp *cdg.Space, filterBound int) error {
	nw, ref := New(sp), New(sp)
	step := func(name string, got, want int) error {
		if got != want {
			return fmt.Errorf("%s: returned %d, reference %d", name, got, want)
		}
		if d := stateDiff(nw, ref); d != "" {
			return fmt.Errorf("%s: %s", name, d)
		}
		if err := nw.CheckLivePairs(); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		return nil
	}
	g := sp.Grammar()
	for _, c := range g.Unary() {
		if err := step("unary "+c.Name, nw.ApplyUnary(c), refApplyUnary(ref, c)); err != nil {
			return err
		}
	}
	for _, c := range g.Binary() {
		if err := step("binary "+c.Name, nw.ApplyBinary(c), ref.ApplyBinary(c)); err != nil {
			return err
		}
		if err := step("consistency after "+c.Name, nw.ConsistencyPass(), refConsistencyPass(ref)); err != nil {
			return err
		}
	}
	if err := step("filter", nw.Filter(filterBound), refFilter(ref, filterBound)); err != nil {
		return err
	}
	for gr, dom := range nw.domains {
		if ones := dom.Ones(); len(ones) > 0 {
			nw.Eliminate(gr, ones[0])
			refEliminate(ref, gr, ones[0])
		}
	}
	return step("eliminate", 0, 0)
}

// randomRows are the random-grammar cases of the reference test, and
// the seed corpus of FuzzNetworkMatchesPerValue: grammar seed, sentence
// seed, sentence length and filter bound.
var randomRows = []struct {
	gseed, sseed uint64
	n, bound     int
}{
	{1, 2, 2, 0}, {3, 5, 3, 0}, {7, 11, 4, 1}, {13, 17, 5, 0},
	{19, 23, 6, 2}, {29, 31, 7, 0}, {37, 41, 8, 0}, {42, 1, 8, 3},
	{101, 7, 5, 0}, {2024, 9, 6, 0}, {9001, 17, 8, 1}, {123456789, 987654321, 7, 0},
}

// TestNetworkMatchesPerValue holds the word-wise elimination and
// support passes to the per-value reference on random grammars, the
// paper's demo grammar, and English up to 16 words, where a governor
// row spans three words.
func TestNetworkMatchesPerValue(t *testing.T) {
	for _, row := range randomRows {
		g := grammars.Random(row.gseed)
		words := grammars.RandomSentence(g, row.sseed, row.n)
		if err := checkAgainstReference(spaceOf(t, g, words), row.bound); err != nil {
			t.Errorf("random g=%d s=%d n=%d bound=%d: %v", row.gseed, row.sseed, row.n, row.bound, err)
		}
	}
	demo := grammars.PaperDemo()
	for n := 1; n <= 8; n++ {
		if err := checkAgainstReference(spaceOf(t, demo, workload.DemoSentence(n)), 0); err != nil {
			t.Errorf("demo n=%d: %v", n, err)
		}
	}
	english := grammars.English()
	for _, n := range []int{3, 4, 6, 8, 10, 12, 16} {
		if err := checkAgainstReference(spaceOf(t, english, workload.EnglishSentence(n)), 0); err != nil {
			t.Errorf("english n=%d: %v", n, err)
		}
	}
	if err := checkAgainstReference(spaceOf(t, english, workload.AmbiguousEnglish(2)), 2); err != nil {
		t.Errorf("ambiguous english, bound 2: %v", err)
	}
}

// FuzzNetworkMatchesPerValue is TestNetworkMatchesPerValue over random
// grammars: a grammar seed, a sentence seed, a length of 2–8 words
// (2 + n mod 7) and a filter bound of 0–3 passes (0: to fixpoint).
// With english set, the grammar is English instead and the sentence
// 8–14 words (8 + n mod 7) drawn from its lexicon: a role with 8 labels
// then has 72 or more values, so its rows span several words, which no
// random grammar's roles (at most 36 values) reach.
func FuzzNetworkMatchesPerValue(f *testing.F) {
	for _, row := range randomRows {
		f.Add(row.gseed, row.sseed, uint8(row.n-2), uint8(row.bound), false)
	}
	f.Add(uint64(0), uint64(3), uint8(0), uint8(0), true)
	f.Add(uint64(0), uint64(5), uint8(6), uint8(1), true)
	english := grammars.English()
	f.Fuzz(func(t *testing.T, gseed, sseed uint64, n, bound uint8, useEnglish bool) {
		var words []string
		g := english
		if useEnglish {
			words = grammars.RandomSentence(g, sseed, 8+int(n)%7)
		} else {
			g = grammars.Random(gseed)
			words = grammars.RandomSentence(g, sseed, 2+int(n)%7)
		}
		maxIters := int(bound) % 4
		if err := checkAgainstReference(spaceOf(t, g, words), maxIters); err != nil {
			t.Fatalf("g=%d english=%v s=%d words=%v bound=%d: %v", gseed, useEnglish, sseed, words, maxIters, err)
		}
	})
}

// restoreState copies src's domains and matrix bits into nw, one bit at
// a time so that it allocates nothing.
func restoreState(nw, src *Network) {
	for gr, d := range nw.domains {
		d.CopyFrom(src.domains[gr])
	}
	for k, arc := range nw.arcs {
		m := src.arcs[k].M
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				arc.M.Assign(i, j, m.Get(i, j))
			}
		}
	}
}

// TestApplyUnaryAllocatesNothing: once a network has made its scratch,
// the unary phase allocates nothing, victims included (each run starts
// again from the initial state).
func TestApplyUnaryAllocatesNothing(t *testing.T) {
	g := grammars.English()
	nw := New(spaceOf(t, g, workload.EnglishSentence(8)))
	initial := nw.Clone()
	allocs := testing.AllocsPerRun(10, func() {
		restoreState(nw, initial)
		for _, c := range g.Unary() {
			nw.ApplyUnary(c)
		}
	})
	if allocs != 0 {
		t.Errorf("unary phase allocated %.1f times per run, want 0", allocs)
	}
	if nw.Counters.Eliminations == 0 {
		t.Error("unary phase removed nothing; the test does not reach removal")
	}
}

// TestConsistencyPassAllocatesNothing: a warm consistency pass that
// finds and removes victims allocates nothing.
func TestConsistencyPassAllocatesNothing(t *testing.T) {
	g := grammars.English()
	nw := New(spaceOf(t, g, workload.EnglishSentence(8)))
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	for _, c := range g.Binary() {
		nw.ApplyBinary(c)
	}
	before := nw.Clone()
	removed := 0
	allocs := testing.AllocsPerRun(10, func() {
		restoreState(nw, before)
		removed = nw.ConsistencyPass()
	})
	if allocs != 0 {
		t.Errorf("consistency pass allocated %.1f times per run, want 0", allocs)
	}
	if removed == 0 {
		t.Error("consistency pass removed nothing; the test does not reach removal")
	}
}
