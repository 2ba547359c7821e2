package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/maspar"
)

// The per-PE formulation of the propagation steps: every PE decodes its
// column and row groups from its id and evaluates each of its role
// values (and each of its l×l pairs) itself, exactly as the SIMD array
// does. masparsec.go evaluates each verdict once per (member, group,
// slot) instead; TestHoistedEvalMatchesPerPE holds the two to the same
// plural state after every step. The reference evaluates every gang
// segment, duplicates included, so it also pins the duplicate-class
// shortcut.

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

// checkHoistedMatchesPerPE runs the propagation phase of one gang twice,
// hoisted and per-PE, on two identically set-up machines, and compares
// the plural state after every step. With perConstraint, a consistency
// round follows each constraint (the same code on both sides), so
// later constraints meet states with dead values too. Both machines
// must end with equal counters: the hoisting changes host work only.
func checkHoistedMatchesPerPE(t *testing.T, g *cdg.Grammar, sentences []string, perConstraint bool) {
	t.Helper()
	var sps []*cdg.Space
	for _, sent := range resolveAll(t, g, sentences) {
		sps = append(sps, cdg.NewSpace(g, sent))
	}
	newRun := func() *masparRun {
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
	hot, ref := newRun(), newRun()
	step := func(name string, hoisted, perPE func(), round bool) {
		t.Helper()
		hoisted()
		perPE()
		if round {
			hot.consistencyRound()
			ref.consistencyRound()
		}
		if diff := samePluralState(hot, ref); diff != "" {
			t.Fatalf("after %s: %s", name, diff)
		}
	}
	step("initAlive", hot.initAlive, ref.initAliveRef, false)
	step("initBits", hot.initBits, ref.initBits, false)
	for _, c := range g.Unary() {
		step("unary "+c.Name, func() { hot.applyUnary(c) }, func() { ref.applyUnaryRef(c) }, perConstraint)
	}
	for _, c := range g.Binary() {
		step("binary "+c.Name, func() { hot.applyBinary(c) }, func() { ref.applyBinaryRef(c) }, perConstraint)
	}
	if bitsAlive(hot) == 0 {
		t.Fatal("no arc element survived propagation; the comparison is vacuous")
	}
	hm, rm := hot.m, ref.m
	if hm.Cycles != rm.Cycles || hm.ScanOps != rm.ScanOps || hm.RouterOps != rm.RouterOps ||
		hm.ConstraintChecks != rm.ConstraintChecks || hm.Broadcasts != rm.Broadcasts {
		t.Fatalf("counters differ: hoisted cycles=%d scans=%d routers=%d checks=%d broadcasts=%d, per-PE %d/%d/%d/%d/%d",
			hm.Cycles, hm.ScanOps, hm.RouterOps, hm.ConstraintChecks, hm.Broadcasts,
			rm.Cycles, rm.ScanOps, rm.RouterOps, rm.ConstraintChecks, rm.Broadcasts)
	}
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

// TestHoistedEvalMatchesPerPE holds initAlive, applyUnary and
// applyBinary bit-identical to the per-PE reference after every
// propagation step, on the demo and English grammars and on the random
// grammars of TestQuickDifferentialRandomGrammars, for gangs of 1, 3
// and 8 (duplicates included), with and without per-constraint
// consistency rounds, at several worker-pool sizes.
func TestHoistedEvalMatchesPerPE(t *testing.T) {
	type gangCase struct {
		name      string
		g         *cdg.Grammar
		distinct  []string
		perConstr bool
	}
	cases := []gangCase{
		{"demo3-rounds", grammars.PaperDemo(), []string{"the program runs", "a machine halts"}, true},
		{"demo5", grammars.PaperDemo(), []string{"the program runs the machine", "runs program the a parser"}, false},
		{"english4", grammars.English(), []string{"rex caught the ball", "the dog walked quickly", "walked the dog rex"}, false},
		{"english3-rounds", grammars.English(), []string{"the dog walked", "fido took rex"}, true},
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
			for _, size := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("procs%d/%s/gang%d", procs, tc.name, size), func(t *testing.T) {
					checkHoistedMatchesPerPE(t, tc.g, gangOf(tc.distinct, size), tc.perConstr)
				})
			}
		}
	}
}
