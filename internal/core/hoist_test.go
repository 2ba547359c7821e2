package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/grammars"
	"repro/internal/maspar"
)

// The per-PE formulation of the propagation steps: every PE decodes its
// column and row groups from its id and evaluates each of its role
// values (and each of its l×l pairs) itself, exactly as the SIMD array
// does. masparsec.go evaluates each unary verdict once per (member,
// group, slot) and each binary verdict once per unordered pair of live
// role values instead, and sweeps only live label slots; the dense
// consistency round and read-back below visit every slot.
// TestHoistedEvalMatchesPerPE holds the two to the same plural state
// after every step and to the same read-back networks. The reference
// evaluates every gang segment, duplicates included, so it also pins
// the duplicate-class shortcut.

// aliveInitRef computes the initial liveness of (group g, label slot
// ls) for one gang member's sentence: the slot must be a real label of
// the role, and table T (with the per-category restriction) must admit
// it for the word's category.
func (run *masparRun) aliveInitRef(sent *cdg.Sentence, g, ls int) bool {
	pos, role, _ := run.ly.Group(g)
	if ls >= len(run.gr.RoleLabels(role)) {
		return false
	}
	cat, ok := sent.Cat(pos)
	return ok && run.ly.allowed[role][cat][ls]
}

func (run *masparRun) initAliveRef() {
	ly := run.ly
	run.m.AllWords(func(w int, active uint64) {
		seg := w / run.segWords
		base := seg * run.stride
		sent := run.sents[seg]
		for bset := active; bset != 0; bset &= bset - 1 {
			pe := w<<6 + bits.TrailingZeros64(bset)
			bit := uint64(1) << (uint(pe) & 63)
			lane := pe - base
			col, row := ly.ColGroup(lane), ly.RowGroup(lane)
			for ls := 0; ls < ly.l; ls++ {
				if run.aliveInitRef(sent, col, ls) {
					run.aliveColV[ls][w] |= bit
				}
				if run.aliveInitRef(sent, row, ls) {
					run.aliveRowV[ls][w] |= bit
				}
			}
		}
	})
}

func (run *masparRun) applyUnaryRef(c *cdg.Constraint) {
	ly := run.ly
	run.bindCheckers(c)
	run.m.AllChecksWords(2*ly.l, func(w int, active uint64) {
		seg := w / run.segWords
		base := seg * run.stride
		ck := &run.cks[seg]
		for bset := active; bset != 0; bset &= bset - 1 {
			pe := w<<6 + bits.TrailingZeros64(bset)
			bit := uint64(1) << (uint(pe) & 63)
			lane := pe - base
			col, row := ly.ColGroup(lane), ly.RowGroup(lane)
			for ls := 0; ls < ly.l; ls++ {
				if run.aliveColV[ls][w]&bit != 0 {
					if ref, ok := ly.RVRef(col, ls); ok && !ck.Check1(ref) {
						run.aliveColV[ls][w] &^= bit
					}
				}
				if run.aliveRowV[ls][w]&bit != 0 {
					if ref, ok := ly.RVRef(row, ls); ok && !ck.Check1(ref) {
						run.aliveRowV[ls][w] &^= bit
					}
				}
			}
		}
		for lc := 0; lc < ly.l; lc++ {
			ac := run.aliveColV[lc][w]
			for lr := 0; lr < ly.l; lr++ {
				run.bitsV[lc*ly.l+lr][w] &= (ac & run.aliveRowV[lr][w]) | ^active
			}
		}
	})
}

func (run *masparRun) applyBinaryRef(c *cdg.Constraint) {
	ly := run.ly
	run.bindCheckers(c)
	run.m.AllChecksWords(2*ly.l*ly.l, func(w int, active uint64) {
		seg := w / run.segWords
		base := seg * run.stride
		ck := &run.cks[seg]
		for bset := active; bset != 0; bset &= bset - 1 {
			pe := w<<6 + bits.TrailingZeros64(bset)
			bit := uint64(1) << (uint(pe) & 63)
			lane := pe - base
			col, row := ly.ColGroup(lane), ly.RowGroup(lane)
			for lc := 0; lc < ly.l; lc++ {
				refC, okC := ly.RVRef(col, lc)
				if !okC {
					continue
				}
				for lr := 0; lr < ly.l; lr++ {
					bv := run.bitsV[lc*ly.l+lr]
					if bv[w]&bit == 0 {
						continue
					}
					refR, okR := ly.RVRef(row, lr)
					if !okR {
						continue
					}
					if !ck.Check2(refC, refR) || !ck.Check2(refR, refC) {
						bv[w] &^= bit
					}
				}
			}
		}
	})
}

// consistencyRoundRef is consistencyRound with every host sweep dense:
// each word ORs all l² arc-element vectors and is re-masked whether or
// not its liveness changed. It issues the same machine calls.
func (run *masparRun) consistencyRoundRef() bool {
	ly, m := run.ly, run.m
	run.roundsRun++
	changed := m.GetVec()
	tmp := m.GetVec()
	perArc := m.GetVec()
	blockSup := m.GetVec()
	dist := m.GetVec()
	defer func() {
		m.PutVec(changed)
		m.PutVec(tmp)
		m.PutVec(perArc)
		m.PutVec(blockSup)
		m.PutVec(dist)
	}()
	clearVec(changed)

	for lc := 0; lc < ly.l; lc++ {
		m.AllWords(func(w int, active uint64) {
			var t uint64
			for lr := 0; lr < ly.l; lr++ {
				t |= run.bitsV[lc*ly.l+lr][w]
			}
			tmp[w] = t & active
		})
		m.SegReduceOrToHeadV(perArc, tmp, run.arcSegHeadW)
		m.SetMaskWords(run.scanAndMaskW)
		m.SegReduceAndToHeadV(blockSup, perArc, run.blockFirstActiveW)
		m.SetMaskWords(run.baseMaskW)
		m.CopySegHeadV(dist, blockSup, run.blockFirstActiveW)
		ac := run.aliveColV[lc]
		m.AllWords(func(w int, active uint64) {
			old := ac[w]
			now := old & (dist[w] | ^active)
			ac[w] = now
			changed[w] |= old ^ now
		})
	}
	for ls := 0; ls < ly.l; ls++ {
		acv, arv := run.aliveColV[ls], run.aliveRowV[ls]
		m.AllWords(func(w int, active uint64) { tmp[w] = acv[w] & active })
		m.RouterTransposeV(dist, tmp, ly.s)
		m.AllWords(func(w int, active uint64) {
			arv[w] = (dist[w] & active) | (arv[w] &^ active)
		})
	}
	m.AllWords(func(w int, active uint64) {
		for lc := 0; lc < ly.l; lc++ {
			ac := run.aliveColV[lc][w]
			for lr := 0; lr < ly.l; lr++ {
				run.bitsV[lc*ly.l+lr][w] &= (ac & run.aliveRowV[lr][w]) | ^active
			}
		}
	})
	m.SegmentOrV(changed, run.segChanged)
	for _, ch := range run.segChanged {
		if ch == 1 {
			return true
		}
	}
	return false
}

// readBackRef is readBack reading every (modifiee, modifiee, slot,
// slot) matrix bit of every arc from the PE owning its group pair.
func (run *masparRun) readBackRef(b int) *cn.Network {
	ly, sp := run.ly, run.sps[b]
	base := b * run.stride
	nw := cn.NewShell(sp)
	n := sp.N()
	for g := 0; g < ly.s; g++ {
		pos, role, mod := ly.Group(g)
		gr := sp.GlobalRole(pos, role)
		first := ly.blockHead(g)
		if first >= (g+1)*ly.s {
			continue
		}
		first += base
		for ls := range sp.Grammar().RoleLabels(role) {
			if run.aliveColAt(first, ls) == 1 {
				nw.Domain(gr).SetBit(ls*(n+1) + mod)
			}
		}
	}
	for _, arc := range nw.Arcs() {
		posA, ra := sp.RoleAt(arc.A)
		posB, rb := sp.RoleAt(arc.B)
		labsA := sp.Grammar().RoleLabels(ra)
		labsB := sp.Grammar().RoleLabels(rb)
		for modA := 0; modA <= n; modA++ {
			if modA == posA {
				continue
			}
			colG := ly.GroupOf(posA, ra, modA)
			for modB := 0; modB <= n; modB++ {
				if modB == posB {
					continue
				}
				pe := base + colG*ly.s + ly.GroupOf(posB, rb, modB)
				for lsA := range labsA {
					for lsB := range labsB {
						if run.bitAt(pe, lsA, lsB) == 1 {
							arc.M.SetBit(lsA*(n+1)+modA, lsB*(n+1)+modB)
						}
					}
				}
			}
		}
	}
	return nw
}

// liveSlotViolation reports the first word where an arc element is set
// outside aliveCol ∧ aliveRow ∧ mask, the invariant the live-slot skips
// rely on ("" when it holds).
func liveSlotViolation(run *masparRun) string {
	l := run.ly.l
	for lc := 0; lc < l; lc++ {
		for lr := 0; lr < l; lr++ {
			for w, x := range run.bitsV[lc*l+lr] {
				if stray := x &^ (run.aliveColV[lc][w] & run.aliveRowV[lr][w] & run.baseMaskW[w]); stray != 0 {
					return fmt.Sprintf("bitsV[%d·l+%d] word %d has %#x outside aliveCol ∧ aliveRow ∧ mask", lc, lr, w, stray)
				}
			}
		}
	}
	return ""
}

// sameNetwork compares two read-back networks exactly: domains and
// every matrix bit, including bits under dead values that EqualState
// ignores ("" when they are equal).
func sameNetwork(got, want *cn.Network) string {
	for gr := 0; gr < want.Space().NumRoles(); gr++ {
		if !got.Domain(gr).Equal(want.Domain(gr)) {
			return fmt.Sprintf("domain %d: %v, dense %v", gr, got.Domain(gr), want.Domain(gr))
		}
	}
	for i, arc := range want.Arcs() {
		if !got.Arcs()[i].M.Equal(arc.M) {
			return fmt.Sprintf("arc %d-%d matrix differs", arc.A, arc.B)
		}
	}
	return ""
}

// samePluralState reports the first packed word where the two runs'
// liveness or arc-element vectors differ ("" when they are equal).
func samePluralState(got, want *masparRun) string {
	for _, side := range []struct {
		name      string
		got, want [][]uint64
	}{
		{"aliveColV", got.aliveColV, want.aliveColV},
		{"aliveRowV", got.aliveRowV, want.aliveRowV},
		{"bitsV", got.bitsV, want.bitsV},
	} {
		for i := range side.want {
			for w := range side.want[i] {
				if g, x := side.got[i][w], side.want[i][w]; g != x {
					return fmt.Sprintf("%s[%d] word %d: %#x, per-PE %#x", side.name, i, w, g, x)
				}
			}
		}
	}
	return ""
}

// checkHoistedMatchesPerPE runs one gang twice, hoisted and per-PE, on
// two identically set-up machines: propagation, then filtering to
// fixpoint. The per-PE side uses the dense consistency round. The
// plural state is compared, and the live-slot invariant asserted, after
// every step and every round; then each member's read-back networks are
// compared exactly. With perConstraint, a consistency round follows
// each constraint, so later constraints meet states with dead values
// too. Both machines must end with equal counters: the hoisting and the
// skips change host work only.
func checkHoistedMatchesPerPE(t *testing.T, g *cdg.Grammar, sentences []string, perConstraint bool) {
	t.Helper()
	hot, ref := newTestRun(t, g, sentences), newTestRun(t, g, sentences)
	compare := func(name string) {
		t.Helper()
		if diff := samePluralState(hot, ref); diff != "" {
			t.Fatalf("after %s: %s", name, diff)
		}
		if bad := liveSlotViolation(hot); bad != "" {
			t.Fatalf("after %s: %s", name, bad)
		}
	}
	round := func(name string) bool {
		t.Helper()
		anyHot, anyRef := hot.consistencyRound(), ref.consistencyRoundRef()
		compare(name)
		if anyHot != anyRef || !slices.Equal(hot.segChanged, ref.segChanged) {
			t.Fatalf("after %s: changed segments %v, dense %v", name, hot.segChanged, ref.segChanged)
		}
		return anyHot
	}
	step := func(name string, hoisted, perPE func()) {
		t.Helper()
		hoisted()
		perPE()
		compare(name)
		if perConstraint {
			round(name + " round")
		}
	}
	hot.initAlive()
	ref.initAliveRef()
	compare("initAlive")
	hot.initBits()
	ref.initBits()
	compare("initBits")
	for _, c := range g.Unary() {
		step("unary "+c.Name, func() { hot.applyUnary(c) }, func() { ref.applyUnaryRef(c) })
	}
	for _, c := range g.Binary() {
		step("binary "+c.Name, func() { hot.applyBinary(c) }, func() { ref.applyBinaryRef(c) })
	}
	if bitsAlive(hot) == 0 {
		t.Fatal("no arc element survived propagation; the comparison is vacuous")
	}
	for i := 1; ; i++ {
		if !round(fmt.Sprintf("filter round %d", i)) {
			break
		}
	}
	for b := range hot.sps {
		if diff := sameNetwork(hot.readBack(b), ref.readBackRef(b)); diff != "" {
			t.Fatalf("member %d read-back: %s", b, diff)
		}
	}
	hm, rm := hot.m, ref.m
	if hm.Cycles != rm.Cycles || hm.ScanOps != rm.ScanOps || hm.RouterOps != rm.RouterOps ||
		hm.ConstraintChecks != rm.ConstraintChecks || hm.Broadcasts != rm.Broadcasts {
		t.Fatalf("counters differ: hoisted cycles=%d scans=%d routers=%d checks=%d broadcasts=%d, per-PE %d/%d/%d/%d/%d",
			hm.Cycles, hm.ScanOps, hm.RouterOps, hm.ConstraintChecks, hm.Broadcasts,
			rm.Cycles, rm.ScanOps, rm.RouterOps, rm.ConstraintChecks, rm.Broadcasts)
	}
}

// newTestRun sets up a gang run of sentences on a fresh full-size
// machine, ready for initAlive.
func newTestRun(t *testing.T, g *cdg.Grammar, sentences []string) *masparRun {
	t.Helper()
	var sps []*cdg.Space
	for _, sent := range resolveAll(t, g, sentences) {
		sps = append(sps, cdg.NewSpace(g, sent))
	}
	m, err := maspar.New(maspar.PhysicalPEs, maspar.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	run, err := newMasParRun(sps, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// bitsAlive counts the arc elements set across the run's plural state.
func bitsAlive(run *masparRun) int {
	n := 0
	for _, v := range run.bitsV {
		for _, w := range v {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// gangOf returns a gang of size members cycling through distinct, so
// every gang larger than len(distinct) holds duplicates.
func gangOf(distinct []string, size int) []string {
	out := make([]string, size)
	for i := range out {
		out[i] = distinct[i%len(distinct)]
	}
	return out
}

// TestHoistedEvalMatchesPerPE holds initAlive, applyUnary,
// applyBinary, consistencyRound and readBack bit-identical to the
// per-PE and dense references after every step, and the live-slot
// invariant true, on the demo and English grammars and on the random
// grammars of TestQuickDifferentialRandomGrammars, for gangs of 1, 3
// and 8 (duplicates included), with and without per-constraint
// consistency rounds, at several worker-pool sizes. The english5 rows
// are BenchmarkEndToEndParse's distinct gang: eight different 5-word
// sentences in one gang of 8.
func TestHoistedEvalMatchesPerPE(t *testing.T) {
	type gangCase struct {
		name      string
		g         *cdg.Grammar
		distinct  []string
		perConstr bool
		sizes     []int // gang sizes; nil means 1, 3 and 8
	}
	cases := []gangCase{
		{"demo3-rounds", grammars.PaperDemo(), []string{"the program runs", "a machine halts"}, true, nil},
		{"demo5", grammars.PaperDemo(), []string{"the program runs the machine", "runs program the a parser"}, false, nil},
		{"english4", grammars.English(), []string{"rex caught the ball", "the dog walked quickly", "walked the dog rex"}, false, nil},
		{"english3-rounds", grammars.English(), []string{"the dog walked", "fido took rex"}, true, nil},
		{"english5-distinct", grammars.English(), distinctFive, false, []int{8}},
		{"english5-distinct-rounds", grammars.English(), distinctFive, true, []int{8}},
	}
	for _, seed := range []uint64{3, 14, 27, 14791735527896900715} {
		g := grammars.Random(seed)
		n := 2 + int(seed%4)
		cases = append(cases, gangCase{
			name: fmt.Sprintf("random%d", seed),
			g:    g,
			distinct: []string{
				strings.Join(grammars.RandomSentence(g, seed*31, n), " "),
				strings.Join(grammars.RandomSentence(g, seed*31+1, n), " "),
			},
			perConstr: seed%2 == 0,
		})
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			sizes := tc.sizes
			if sizes == nil {
				sizes = []int{1, 3, 8}
			}
			for _, size := range sizes {
				t.Run(fmt.Sprintf("procs%d/%s/gang%d", procs, tc.name, size), func(t *testing.T) {
					checkHoistedMatchesPerPE(t, tc.g, gangOf(tc.distinct, size), tc.perConstr)
				})
			}
		}
	}
}

// TestApplyBinaryAllocatesNothing holds a warmed run's binary passes to
// zero allocations: the live-value lists and verdict spans are sized
// once per run and reused for every constraint. The solo run hands
// its one segment out inline at any GOMAXPROCS; the gang's machine is
// built with one host worker, so its segments run inline too and only
// core's own work is counted.
func TestApplyBinaryAllocatesNothing(t *testing.T) {
	g := grammars.English()
	check := func(name string, run *masparRun) {
		t.Helper()
		run.initAlive()
		run.initBits()
		for _, c := range g.Unary() {
			run.applyUnary(c)
		}
		binary := func() {
			for _, c := range g.Binary() {
				run.applyBinary(c)
			}
		}
		binary() // warm: the first pass sizes the scratch
		if allocs := testing.AllocsPerRun(5, binary); allocs != 0 {
			t.Errorf("%s: %v allocations per sweep of %d binary constraints, want 0", name, allocs, len(g.Binary()))
		}
	}
	check("solo", newTestRun(t, g, distinctFive[:1]))
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	check("gang", newTestRun(t, g, gangOf(distinctFive, 12)))
}
