package core

import (
	"context"
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
// role values instead, clears a run of unary constraints' violators,
// and a round's unsupported values, with one sweep, and sweeps only
// live label slots; the dense consistency round and read-back below
// visit every slot.
// TestHoistedEvalMatchesPerPE holds the two to the same plural state
// after every step and to the same read-back networks, for gangs with
// and without repeated members: the run evaluates every segment.

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

// applyUnaryRef and applyBinaryRef charge the constraint's instruction
// through ChargeAllChecks, as production does, and apply its effect per
// PE over the words of the propagation mask.
func (run *masparRun) applyUnaryRef(c *cdg.Constraint) {
	ly := run.ly
	run.bindCheckers(c)
	run.m.ChargeAllChecks(2 * ly.l)
	for w, active := range run.baseMaskW {
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
	}
}

func (run *masparRun) applyBinaryRef(c *cdg.Constraint) {
	ly := run.ly
	run.bindCheckers(c)
	run.m.ChargeAllChecks(2 * ly.l * ly.l)
	for w, active := range run.baseMaskW {
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
	}
}

// consistencyRoundRef is consistencyRound as the machine runs it, with
// every host sweep dense: each word ORs all l² arc-element vectors, the
// column verdicts are applied per PE, the row side is the transpose of
// the column side, mirrored lane by lane through transposeOf under one
// router charge per slot, every word is re-masked whether or not its
// liveness changed, and each segment ORs its own column changes under
// one segmented-reduce charge. It makes every charge
// consistencyRound makes.
func (run *masparRun) consistencyRoundRef() bool {
	ly, m := run.ly, run.m
	run.roundsRun++
	changed := make([]uint64, m.WordLen())
	tmp := make([]uint64, m.WordLen())
	perArc := make([]uint64, m.WordLen())
	blockSup := make([]uint64, m.WordLen())
	dist := make([]uint64, m.WordLen())

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
		m.ChargeRouter()
		clear(dist)
		for b := range run.sents {
			base := b * run.stride
			for v := 0; v < ly.v; v++ {
				if src := base + transposeOf(ly, v); tmp[src>>6]>>(uint(src)&63)&1 == 1 {
					pe := base + v
					dist[pe>>6] |= 1 << (uint(pe) & 63)
				}
			}
		}
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
	m.ChargeSegmentOr()
	any := false
	for b := range run.segChanged {
		var or uint64
		for w := b * run.segWords; w < (b+1)*run.segWords; w++ {
			or |= changed[w] & run.baseMaskW[w]
		}
		run.segChanged[b] = 0
		if or != 0 {
			run.segChanged[b] = 1
			any = true
		}
	}
	return any
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

// checkHoistedMatchesPerPE runs one gang three times on identically
// set-up machines: propagation, then filtering to fixpoint. The per-PE
// run is the reference and uses the dense consistency round. The
// hoisted run sweeps after every unary constraint, so its plural state
// is compared with the reference, and the live-slot invariant
// asserted, after every step and every round. The accumulated run
// propagates the unary constraints as runMasParGang does
// (propagateUnary: one sweep for the whole run, or one before each
// per-constraint round), and joins the comparisons from the end of the
// unary phase on. Then each member's read-back networks are compared
// exactly. With perConstraint, a consistency round follows each
// constraint, so later constraints meet states with dead values too.
// All machines must end with equal counters: the hoisting, the
// accumulation and the skips change host work only.
func checkHoistedMatchesPerPE(t *testing.T, g *cdg.Grammar, sentences []string, perConstraint bool) {
	t.Helper()
	type side struct {
		name string
		run  *masparRun
	}
	hot, acc, ref := newTestRun(t, g, sentences), newTestRun(t, g, sentences), newTestRun(t, g, sentences)
	sides := []side{{"hoisted", hot}, {"accumulated", acc}}
	live := sides[:1] // the accumulated run joins after the unary phase
	compare := func(name string) {
		t.Helper()
		for _, s := range live {
			if diff := samePluralState(s.run, ref); diff != "" {
				t.Fatalf("%s run after %s: %s", s.name, name, diff)
			}
			if bad := liveSlotViolation(s.run); bad != "" {
				t.Fatalf("%s run after %s: %s", s.name, name, bad)
			}
			if s.run.roundsRun != ref.roundsRun || !slices.Equal(s.run.segChanged, ref.segChanged) {
				t.Fatalf("%s run after %s: %d rounds changed segments %v, dense %d rounds %v",
					s.name, name, s.run.roundsRun, s.run.segChanged, ref.roundsRun, ref.segChanged)
			}
		}
	}
	round := func(name string) bool {
		t.Helper()
		anyRef := ref.consistencyRoundRef()
		for _, s := range live {
			if anyRun := s.run.consistencyRound(); anyRun != anyRef {
				t.Fatalf("%s run after %s: changed %v, dense %v", s.name, name, anyRun, anyRef)
			}
		}
		compare(name)
		return anyRef
	}
	step := func(name string, apply func(run *masparRun), perPE func()) {
		t.Helper()
		for _, s := range live {
			apply(s.run)
		}
		perPE()
		compare(name)
		if perConstraint {
			round(name + " round")
		}
	}
	hot.initAlive()
	acc.initAlive()
	ref.initAliveRef()
	compare("initAlive")
	hot.initBits()
	acc.initBits()
	ref.initBits()
	compare("initBits")
	for _, c := range g.Unary() {
		step("unary "+c.Name, func(run *masparRun) {
			run.applyUnary(c)
			run.sweepDead()
		}, func() { ref.applyUnaryRef(c) })
	}
	if err := acc.propagateUnary(context.Background(), perConstraint); err != nil {
		t.Fatal(err)
	}
	live = sides
	compare("the unary phase")
	for _, c := range g.Binary() {
		step("binary "+c.Name, func(run *masparRun) { run.applyBinary(c) }, func() { ref.applyBinaryRef(c) })
	}
	if bitsAlive(hot) == 0 {
		t.Fatal("no arc element survived propagation; the comparison is vacuous")
	}
	for i := 1; ; i++ {
		if !round(fmt.Sprintf("filter round %d", i)) {
			break
		}
	}
	for _, s := range sides {
		for b := range s.run.sps {
			if diff := sameNetwork(s.run.readBack(b), ref.readBackRef(b)); diff != "" {
				t.Fatalf("%s run member %d read-back: %s", s.name, b, diff)
			}
		}
		hm, rm := s.run.m, ref.m
		if hm.Cycles != rm.Cycles || hm.ScanOps != rm.ScanOps || hm.RouterOps != rm.RouterOps ||
			hm.ConstraintChecks != rm.ConstraintChecks || hm.Broadcasts != rm.Broadcasts {
			t.Fatalf("counters differ: %s cycles=%d scans=%d routers=%d checks=%d broadcasts=%d, per-PE %d/%d/%d/%d/%d",
				s.name, hm.Cycles, hm.ScanOps, hm.RouterOps, hm.ConstraintChecks, hm.Broadcasts,
				rm.Cycles, rm.ScanOps, rm.RouterOps, rm.ConstraintChecks, rm.Broadcasts)
		}
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

// TestHoistedEvalMatchesPerPE holds initAlive, applyUnary with
// sweepDead, propagateUnary, applyBinary, consistencyRound and
// readBack bit-identical to the per-PE and dense references after
// every step, and the live-slot invariant true, on the demo and English
// grammars and on the random grammars of
// TestQuickDifferentialRandomGrammars, for gangs of 1, 3 and 8
// (duplicates included), with and without per-constraint consistency
// rounds, at several GOMAXPROCS settings. The english5 rows
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
// zero allocations, solo and in a gang of 12 at the ambient GOMAXPROCS:
// each member's live-value list and the shared verdict spans are sized
// once per run, and a list is rebuilt in place only when its member's
// liveness changes.
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
	check("gang", newTestRun(t, g, gangOf(distinctFive, 12)))
}

// TestBinaryListingFollowsLiveness holds each member's live-value list
// to its liveness. A stale list cannot show in the end state: it only
// adds dead values, whose arc elements are already zero, so the binary
// pass wastes host time on them and changes nothing. So on an English
// gang with per-constraint rounds, where each round's sweep kills
// values between binary constraints, every list a binary pass used must
// equal a fresh listLive of its member.
func TestBinaryListingFollowsLiveness(t *testing.T) {
	g := grammars.English()
	run := newTestRun(t, g, distinctFive)
	run.initAlive()
	run.initBits()
	if err := run.propagateUnary(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	shrunk := 0
	for _, c := range g.Binary() {
		before := make([]int, len(run.lists))
		for b := range run.lists {
			before[b] = len(run.lists[b].refs)
		}
		run.applyBinary(c)
		for b := range run.sents {
			var fresh liveList
			run.listLive(b, &fresh)
			got := &run.lists[b]
			if !slices.Equal(got.refs, fresh.refs) || !slices.Equal(got.at, fresh.at) || !slices.Equal(got.inst, fresh.inst) {
				t.Fatalf("binary %s, member %d: the pass listed %d live values, a fresh listing %d", c.Name, b, len(got.refs), len(fresh.refs))
			}
			if len(got.refs) < before[b] {
				shrunk++
			}
		}
		run.consistencyRound()
	}
	if shrunk == 0 {
		t.Fatal("no round between binary constraints killed a value; the check is vacuous")
	}
}

// TestApplyUnaryAllocatesNothing holds a warmed run's unary phase and
// its sweep to zero allocations: the verdicts and group sets are sized
// once per run, and the sweep is a host loop over the run's own
// vectors. It runs on the same solo run and gang as
// TestApplyBinaryAllocatesNothing.
func TestApplyUnaryAllocatesNothing(t *testing.T) {
	g := grammars.English()
	check := func(name string, run *masparRun) {
		t.Helper()
		run.initAlive()
		run.initBits()
		unary := func() {
			if err := run.propagateUnary(context.Background(), false); err != nil {
				t.Fatal(err)
			}
		}
		unary() // warm
		if allocs := testing.AllocsPerRun(5, unary); allocs != 0 {
			t.Errorf("%s: %v allocations per unary phase of %d constraints, want 0", name, allocs, len(g.Unary()))
		}
	}
	check("solo", newTestRun(t, g, distinctFive[:1]))
	check("gang", newTestRun(t, g, gangOf(distinctFive, 12)))
}

// TestConsistencyRoundAllocatesNothing holds a warmed run's consistency
// rounds to zero allocations: the scan scratch is the run's own, made
// with its plural vectors, and the verdicts go through the run's own
// group sets into one sweep. It runs on the same solo run and gang as
// TestApplyBinaryAllocatesNothing.
func TestConsistencyRoundAllocatesNothing(t *testing.T) {
	g := grammars.English()
	check := func(name string, run *masparRun) {
		t.Helper()
		run.initAlive()
		run.initBits()
		if err := run.propagateUnary(context.Background(), false); err != nil {
			t.Fatal(err)
		}
		for _, c := range g.Binary() {
			run.applyBinary(c)
		}
		round := func() { run.consistencyRound() }
		round() // warm
		if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
			t.Errorf("%s: %v allocations per consistency round, want 0", name, allocs)
		}
	}
	check("solo", newTestRun(t, g, distinctFive[:1]))
	check("gang", newTestRun(t, g, gangOf(distinctFive, 12)))
}
