package core

// The MasPar MP-1 PARSEC algorithm (section 2.2).
//
// Pipeline, following the six design decisions of §2.2.1:
//
//  1. Arc matrices are built before unary propagation, so every role
//     value is present and dimensions are fixed (decisions #1, #4).
//  2. There is no shared memory: every PE computes what it needs from
//     its PE id plus ACU broadcasts (decision #2).
//  3. Constraint propagation is pure local computation: the ACU
//     broadcasts each constraint and every PE checks its l×l arc
//     elements — O(k) elemental work with no communication.
//  4. Consistency maintenance is the scanOr/scanAnd construction of
//     Figure 12 (decision #3), one round costing O(log P); filtering
//     runs a bounded number of rounds (decision #5), or to fixpoint
//     when exact agreement with the serial engine is wanted.
//  5. PEs are virtualized: l² arc elements per PE always (decision #6,
//     Figure 13) plus ⌈S²/P⌉ physical layers (§2.2.3).
//
// Plural storage is packed, structure-of-arrays: one []uint64 vector
// (64 PEs per word) per (column label, row label) pair for the arc
// elements, and one per label slot for each liveness side. The
// instruction *schedule* — what the ACU issues, and therefore every
// cycle, scan, and router charge — is identical to the byte-per-PE
// formulation (PlanMasPar depends on that); only the host-side
// execution of each lockstep instruction is word-parallel. See
// DESIGN.md "Packed plural state".
//
// Gang execution. A run executes B ≥ 1 same-length sentences of one
// grammar as ONE plural program: sentence b occupies gang segment b of
// the machine (lanes [b·stride, b·stride+V), stride word-aligned — see
// maspar.SetupGang), every activity/head mask is the layout's mask
// replicated per segment, and one ACU instruction stream drives all
// segments through propagation and consistency rounds together. The
// solo path is simply a gang of one, so every solo test pins the gang
// code. Segment isolation holds because each segment's first active
// lane is local lane n (column block 0's rows 0..n−1 are the disabled
// self-arc block), which carries both an arcSegHead bit (n ≡ 0 mod n)
// and the blockFirstActive bit — so each of the three segmented scan
// shapes of the consistency round starts a fresh carry chain at every
// segment boundary and nothing flows between sentences.
//
// Per-sentence cost attribution: the machine charges per SEGMENT
// (maspar.SetupGang), so its counters always read "what one member
// cost so far". A sentence is settled — its counters snapshotted and
// its round count fixed — after the first round in which its segment
// reports no change; the rounds the gang keeps running for slower
// members are fixpoint no-ops for it and are not charged to it. The
// snapshot therefore equals a solo run's counters bit-for-bit
// (asserted by TestGangMatchesSolo).

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/maspar"
	"repro/internal/metrics"
)

// masparRun holds the plural state of one gang run (B ≥ 1 sentences).
type masparRun struct {
	ly *Layout
	m  *maspar.Machine
	gr *cdg.Grammar

	// sps[b] / sents[b] is gang member b; all share gr and the layout.
	sps   []*cdg.Space
	sents []*cdg.Sentence

	// cks[b] is the compiled checker of the constraint currently being
	// propagated, bound to member b's sentence (scratch reused across
	// constraints so the hot loops never allocate). attr, when non-nil,
	// receives per-stage wall-clock attribution.
	cks  []cdg.Checker
	attr *Attribution

	segWords int // packed words per gang segment
	stride   int // lane stride between segments (64·segWords)

	// bitsV[lc·l+lr] is the packed plural vector of arc-element (lc,lr)
	// across all PEs — the mirrored arc-element store, l×l bits per PE.
	bitsV [][]uint64
	// aliveColV[ls] is the packed liveness of each PE's column group's
	// role value with label slot ls; aliveRowV is the row-side mirror.
	aliveColV [][]uint64
	aliveRowV [][]uint64

	// sets holds a group set (see Layout) per class representative b and
	// label slot ls, setWords words each at groupSet(b, ls): the groups
	// whose value is live after initAlive's table-T lookup, then each
	// unary constraint's violators. verdicts is the Check1Span output
	// over the layout's refs. Both are host buffers reused across
	// constraints.
	sets     []uint64
	setWords int
	verdicts []bool

	// pairs[b] is class representative b's applyBinary scratch, and
	// sweepPairs is applyBinary's per-segment pass, bound once so that
	// handing it to the machine allocates nothing.
	pairs      []pairScratch
	sweepPairs func(seg int)

	// Gang-width images of the layout's packed masks: one copy per
	// segment (a gang of one aliases the layout's own vectors).
	baseMaskW         []uint64
	arcSegHeadW       []uint64
	blockFirstActiveW []uint64
	scanAndMaskW      []uint64

	// classRep[b] is the lowest-indexed member whose sentence is
	// identical (words and categories) to member b's; hasDups is true
	// when any member is a duplicate. Identical sentences produce
	// identical per-lane constraint verdicts, so the host evaluates the
	// propagation checks once per class: unary verdicts and initial
	// liveness come from the representative's group sets, and binary
	// passes copy the representative's packed words into its duplicates
	// — the machine still charges every segment as if it ran them (a
	// real SIMD array would), so counters are unaffected.
	classRep []int
	hasDups  bool

	// roundsRun counts the consistency rounds the shared instruction
	// stream has executed; rounds[b] is the prefix charged to sentence
	// b, fixed when it settles. segChanged is the per-segment result of
	// the round-ending SegmentOrV.
	roundsRun  int
	rounds     []int
	done       []bool
	snaps      []metrics.Counters
	segChanged []maspar.Bit
}

// sentenceKey is the identity duplicate detection groups by: the words
// and resolved categories, which are everything a check verdict can
// read through Env.Sent.
func sentenceKey(s *cdg.Sentence) string {
	var sb strings.Builder
	for p := 1; p <= s.Len(); p++ {
		c, _ := s.Cat(p)
		sb.WriteString(s.Word(p))
		sb.WriteByte(0x1f)
		sb.WriteString(strconv.Itoa(int(c)))
		sb.WriteByte(0x1e)
	}
	return sb.String()
}

// dupSeg reports whether segment seg is a duplicate whose check work
// the class representative carries.
func (run *masparRun) dupSeg(seg int) bool {
	return run.hasDups && run.classRep[seg] != seg
}

// copyDupSegs copies the packed words a check pass computed for each
// class representative into that class's duplicate segments. Segments
// are word-aligned with identical replicated masks, so the word images
// are equal by construction.
func (run *masparRun) copyDupSegs(vecs [][]uint64) {
	if !run.hasDups {
		return
	}
	for b, rep := range run.classRep {
		if rep == b {
			continue
		}
		db, rb := b*run.segWords, rep*run.segWords
		for _, v := range vecs {
			copy(v[db:db+run.segWords], v[rb:rb+run.segWords])
		}
	}
}

// groupSet returns class representative b's group set for label slot
// ls.
func (run *masparRun) groupSet(b, ls int) []uint64 {
	i := (b*run.ly.l + ls) * run.setWords
	return run.sets[i : i+run.setWords : i+run.setWords]
}

// wordSegment locates packed word w for the hoisted loops: the class
// representative of its segment, the segment lane a of the word's bit
// 0, and a mod S.
func (run *masparRun) wordSegment(w int) (rep, a, off int) {
	seg := w / run.segWords
	a = (w - seg*run.segWords) << 6
	return run.classRep[seg], a, a % run.ly.s
}

// fillSets rebuilds class representative b's group sets: group g joins
// slot ls's set when in(i, ls) holds for the group's role value
// ly.refs[i].
func (run *masparRun) fillSets(b int, in func(i, ls int) bool) {
	ly := run.ly
	clearVec(run.sets[b*ly.l*run.setWords : (b+1)*ly.l*run.setWords])
	for g := 0; g < ly.s; g++ {
		lo := int(ly.refOff[g])
		for i := lo; i < int(ly.refOff[g+1]); i++ {
			if in(i, i-lo) {
				run.groupSet(b, i-lo)[g>>6] |= uint64(1) << (uint(g) & 63)
			}
		}
	}
	for ls := 0; ls < ly.l; ls++ {
		ly.extendGroupSet(run.groupSet(b, ls))
	}
}

// Accessors for the packed plural state (tests and readBack use these;
// the hot loops below work on whole words). pe indexes the gang-wide
// lane space.

func (run *masparRun) bitAt(pe, lc, lr int) maspar.Bit {
	return maspar.Bit(run.bitsV[lc*run.ly.l+lr][pe>>6] >> (uint(pe) & 63) & 1)
}

func (run *masparRun) aliveColAt(pe, ls int) maspar.Bit {
	return maspar.Bit(run.aliveColV[ls][pe>>6] >> (uint(pe) & 63) & 1)
}

func (run *masparRun) aliveRowAt(pe, ls int) maspar.Bit {
	return maspar.Bit(run.aliveRowV[ls][pe>>6] >> (uint(pe) & 63) & 1)
}

func clearVec(v []uint64) {
	for i := range v {
		v[i] = 0
	}
}

// Live-slot skips. Every step keeps the arc-element store inside the
// liveness it was derived from:
//
//	bitsV[lc·l+lr][w] ⊆ aliveColV[lc][w] ∧ aliveRowV[lr][w] ∧ mask[w]
//
// initBits establishes it, the unary mask and the consistency zeroing
// re-establish it whenever liveness shrinks, and binary passes only
// clear bits. So a (lc, lr) word whose column or row slot is dead in
// word w is zero there, and a word whose liveness did not change needs
// no re-masking. The host sweeps skip both; the ACU instructions, and
// so every counter, are unchanged. hoist_test.go asserts the invariant
// after every step.

// slotBit is label slot ls's bit in a per-word slot mask. Slots alias
// mod 64 (a role has at most 255 labels): an aliased mask only adds
// slots, and sweeping a slot the mask adds is a no-op by the invariant.
func slotBit(ls int) uint64 { return uint64(1) << (uint(ls) & 63) }

// gangMaskW replicates one segment's packed mask across the gang's
// word space. A gang of one returns the source unchanged (the solo
// path allocates nothing here).
func gangMaskW(src []uint64, segWords, segs int) []uint64 {
	if segs == 1 {
		return src
	}
	out := make([]uint64, segWords*segs)
	for b := 0; b < segs; b++ {
		copy(out[b*segWords:(b+1)*segWords], src)
	}
	return out
}

// runMasPar executes the algorithm for one sentence — a gang of one —
// and returns the run plus the final network read back from the PE
// array. The context is checked between ACU constraint broadcasts and
// between consistency rounds — a cancelled parse stops mid-algorithm
// and the partial PE state is discarded.
func runMasPar(ctx context.Context, sp *cdg.Space, m *maspar.Machine, consistencyPerConstraint bool, filter bool, maxIters int, attr *Attribution) (*masparRun, *cn.Network, error) {
	run, nws, err := runMasParGang(ctx, []*cdg.Space{sp}, m, consistencyPerConstraint, filter, maxIters, attr)
	if err != nil {
		return nil, nil, err
	}
	return run, nws[0], nil
}

// runMasParGang executes the full algorithm for a gang of same-length
// sentences sharing one grammar and returns the run plus each
// member's final network. See the package comment: one instruction
// stream serves every sentence, and counters are attributed per
// sentence exactly as a solo run would charge them.
func runMasParGang(ctx context.Context, sps []*cdg.Space, m *maspar.Machine, consistencyPerConstraint bool, filter bool, maxIters int, attr *Attribution) (*masparRun, []*cn.Network, error) {
	run, err := newMasParRun(sps, m, attr)
	if err != nil {
		return nil, nil, err
	}
	g := run.gr
	B := len(sps)
	run.initAlive()
	run.initBits()

	// Constraint propagation: the ACU broadcasts each constraint, all
	// PEs apply it to their local arc elements.
	for _, uc := range g.Unary() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		run.applyUnary(uc)
		if consistencyPerConstraint {
			run.consistencyRound()
		}
	}
	for _, bc := range g.Binary() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		run.applyBinary(bc)
		if consistencyPerConstraint {
			run.consistencyRound()
		}
	}

	// Consistency maintenance + filtering. Each sentence settles after
	// its first no-change round; the stream keeps running while any
	// member still changes (or until the shared iteration bound).
	if filter {
		for {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if maxIters > 0 && run.roundsRun >= maxIters {
				break
			}
			any := run.consistencyRound()
			run.settleConverged()
			if !any {
				break
			}
		}
	} else if !consistencyPerConstraint {
		// At minimum one round, so unsupported role values are
		// eliminated at all (the paper always runs consistency
		// maintenance after propagation).
		run.consistencyRound()
	}
	run.finish()

	nws := make([]*cn.Network, B)
	for b := range nws {
		nws[b] = run.readBack(b)
	}
	return run, nws, nil
}

// newMasParRun sets the machine up for a gang of same-length sentences
// sharing one grammar and loads the plural program's fixed state: the
// layout's masks, the ACU's table-T broadcast, and zeroed plural
// vectors. Propagation starts with initAlive.
func newMasParRun(sps []*cdg.Space, m *maspar.Machine, attr *Attribution) (*masparRun, error) {
	if len(sps) == 0 {
		return nil, fmt.Errorf("core: a gang needs at least one sentence")
	}
	g := sps[0].Grammar()
	n := sps[0].N()
	for _, sp := range sps[1:] {
		if sp.Grammar() != g || sp.N() != n {
			return nil, fmt.Errorf("core: gang members must share one grammar and sentence length (got n=%d vs n=%d)", sp.N(), n)
		}
	}
	if sps[0].NumRoles() < 2 {
		return nil, fmt.Errorf("core: the MasPar layout needs at least two roles in the network (got %d)", sps[0].NumRoles())
	}
	ly := layoutFor(sps[0])
	if _, err := m.SetupGang(ly.V(), len(sps)); err != nil {
		return nil, err
	}
	l := ly.L()
	B := len(sps)
	run := &masparRun{
		ly:         ly,
		m:          m,
		gr:         g,
		sps:        sps,
		sents:      make([]*cdg.Sentence, B),
		segWords:   m.SegWords(),
		stride:     m.SegStride(),
		cks:        make([]cdg.Checker, B),
		attr:       attr,
		bitsV:      make([][]uint64, l*l),
		aliveColV:  make([][]uint64, l),
		aliveRowV:  make([][]uint64, l),
		sets:       make([]uint64, B*l*ly.groupSetWords()),
		setWords:   ly.groupSetWords(),
		verdicts:   make([]bool, len(ly.refs)),
		pairs:      make([]pairScratch, B),
		rounds:     make([]int, B),
		done:       make([]bool, B),
		snaps:      make([]metrics.Counters, B),
		segChanged: make([]maspar.Bit, B),
	}
	for b, sp := range sps {
		run.sents[b] = sp.Sentence()
	}
	run.sweepPairs = run.binarySegment
	run.classRep = make([]int, B)
	seen := make(map[string]int, B)
	for b, sent := range run.sents {
		k := sentenceKey(sent)
		if rep, ok := seen[k]; ok {
			run.classRep[b] = rep
			run.hasDups = true
		} else {
			seen[k] = b
			run.classRep[b] = b
		}
	}
	run.baseMaskW = gangMaskW(ly.baseMaskW, run.segWords, B)
	run.arcSegHeadW = gangMaskW(ly.arcSegHeadW, run.segWords, B)
	run.blockFirstActiveW = gangMaskW(ly.blockFirstActiveW, run.segWords, B)
	run.scanAndMaskW = gangMaskW(ly.scanAndMaskW, run.segWords, B)
	for i := range run.bitsV {
		run.bitsV[i] = m.GetVec()
		clearVec(run.bitsV[i])
	}
	for ls := 0; ls < l; ls++ {
		run.aliveColV[ls] = m.GetVec()
		run.aliveRowV[ls] = m.GetVec()
		clearVec(run.aliveColV[ls])
		clearVec(run.aliveRowV[ls])
	}

	// ACU broadcast: sentence words/categories and the table-T slices
	// (Layout.allowed) every PE needs to interpret its PE id.
	m.BroadcastData()

	// Disable the role-to-itself blocks for the whole parse.
	m.SetMaskWords(run.baseMaskW)
	return run, nil
}

// The propagation steps below evaluate per (member, group, label slot)
// rather than per PE. A role value's verdict depends only on its group,
// label slot and sentence, and every PE of its column block (and of its
// row stripe) reaches that same verdict — the redundancy by which the
// SIMD array avoids communication. The host therefore evaluates each
// verdict once and writes the result into whole packed words (a binary
// verdict, once per pair of values, into both mirrored PEs); the ACU
// instruction each step issues, and so every cycle, check and counter,
// is unchanged. The per-PE formulation is kept in hoist_test.go as the
// reference these steps are held bit-identical to.

// initAlive fills aliveColV and aliveRowV: a value is live when its
// slot is a real label of the role and table T (with the per-category
// restriction) admits it for the word's category. Each PE computes both
// sides locally from its id — no communication (design decision #2) —
// in one elemental instruction.
func (run *masparRun) initAlive() {
	ly := run.ly
	for b, sent := range run.sents {
		if run.dupSeg(b) {
			continue
		}
		run.fillSets(b, func(i, ls int) bool {
			cat, ok := sent.Cat(ly.refs[i].Pos)
			return ok && ly.allowed[ly.refs[i].Role][cat][ls]
		})
	}
	run.m.AllWords(func(w int, active uint64) {
		rep, a, off := run.wordSegment(w)
		for ls := 0; ls < ly.l; ls++ {
			set := run.groupSet(rep, ls)
			run.aliveColV[ls][w] = ly.colLanes(set, a) & active
			run.aliveRowV[ls][w] = rowLanes(set, off) & active
		}
	})
}

// initBits sets every arc element to aliveCol ∧ aliveRow — "initially,
// all entries in the matrices are set to 1" (for live role values).
// Word-parallel: each (lc,lr) vector is the AND of two liveness
// vectors under the activity mask. Dead column slots keep the zeros
// newMasParRun cleared them to.
func (run *masparRun) initBits() {
	ly := run.ly
	run.m.AllWords(func(w int, active uint64) {
		for lc := 0; lc < ly.l; lc++ {
			ac := run.aliveColV[lc][w]
			if ac == 0 {
				continue
			}
			for lr := 0; lr < ly.l; lr++ {
				run.bitsV[lc*ly.l+lr][w] = ac & run.aliveRowV[lr][w] & active
			}
		}
	})
}

// applyUnary propagates one unary constraint: every PE checks its
// column-side and row-side role values locally and zeroes the liveness
// and arc elements of violators. Pure elemental work; the verdicts are
// evaluated once per (member, group, slot) and cleared from whole
// words, and the arc-element masking that follows is word-parallel.
// Only live slots are swept, and a (lc, lr) word is re-masked only when
// its column or row slot lost a lane.
func (run *masparRun) applyUnary(c *cdg.Constraint) {
	ly := run.ly
	run.bindCheckers(c)
	t0 := run.attr.start()
	defer run.attr.eval(t0)
	for b := range run.sents {
		if run.dupSeg(b) {
			continue
		}
		run.cks[b].Check1Span(ly.refs, run.verdicts)
		run.fillSets(b, func(i, _ int) bool { return !run.verdicts[i] })
	}
	run.m.AllChecksWords(2*ly.l, func(w int, active uint64) {
		rep, a, off := run.wordSegment(w)
		var rowLive, rowLost uint64
		for lr := 0; lr < ly.l; lr++ {
			ar := run.aliveRowV[lr][w]
			if ar == 0 {
				continue
			}
			rowLive |= slotBit(lr)
			if lost := rowLanes(run.groupSet(rep, lr), off) & ar & active; lost != 0 {
				run.aliveRowV[lr][w] = ar &^ lost
				rowLost |= slotBit(lr)
			}
		}
		for lc := 0; lc < ly.l; lc++ {
			ac := run.aliveColV[lc][w]
			if ac == 0 {
				continue
			}
			lost := ly.colLanes(run.groupSet(rep, lc), a) & ac & active
			remask := rowLost
			if lost != 0 {
				ac &^= lost
				run.aliveColV[lc][w] = ac
				remask = rowLive
			}
			if remask == 0 {
				continue
			}
			for lr := 0; lr < ly.l; lr++ {
				if remask&slotBit(lr) != 0 {
					run.bitsV[lc*ly.l+lr][w] &= (ac & run.aliveRowV[lr][w]) | ^active
				}
			}
		}
	})
}

// applyBinary propagates one binary constraint. On the machine, every
// PE tests its l×l surviving pairs in both variable orientations, so
// each pair of role values is tested twice: at PE colGroup·S+rowGroup
// and at its transpose mirror. The host evaluates each unordered pair
// of live role values once instead, per class representative: it lists
// the member's live values from column liveness at each block head, and
// runs one Check2Span and one Check2SpanRev per value over the later
// values of other role instances. A failing pair is cleared at its PE,
// element (lc, lr), and at the mirror, element (lr, lc). This is exact:
// the both-orientation test gives one verdict at both mirror positions;
// by the live-slot invariant every set bit lies on a live×live pair;
// and same-instance pairs sit only on masked PEs. The machine charges
// 2l² checks per PE as before and hands the host work out by gang
// segment.
func (run *masparRun) applyBinary(c *cdg.Constraint) {
	run.bindCheckers(c)
	t0 := run.attr.start()
	defer run.attr.eval(t0)
	run.m.AllChecksSegs(2*run.ly.l*run.ly.l, run.sweepPairs)
	run.copyDupSegs(run.bitsV)
}

// pairScratch is one class representative's applyBinary scratch. refs
// lists its live role values group-major, at[i] gives refs[i]'s group
// and label slot, and inst[k] is the index of the first value of role
// instance k or later (inst[q·n] == len(refs)). fwd and rev hold one
// value's verdicts. Liveness only shrinks, so after the first binary
// constraint the scratch is reused without allocating.
type pairScratch struct {
	refs     []cdg.RVRef
	at       []liveSlot
	inst     []int32
	fwd, rev []bool
}

// liveSlot locates a live role value: its group and label slot.
type liveSlot struct{ g, ls int32 }

// listLive fills class representative b's scratch with its live role
// values.
func (run *masparRun) listLive(b int) *pairScratch {
	ly, ps := run.ly, &run.pairs[b]
	count := 0
	run.forLive(b, func(int, int) { count++ })
	ps.refs = slices.Grow(ps.refs[:0], count)
	ps.at = slices.Grow(ps.at[:0], count)
	ps.fwd = slices.Grow(ps.fwd[:0], count)
	ps.rev = slices.Grow(ps.rev[:0], count)
	insts := ly.s / ly.n
	ps.inst = slices.Grow(ps.inst[:0], insts+1)
	run.forLive(b, func(g, i int) {
		for len(ps.inst) <= g/ly.n {
			ps.inst = append(ps.inst, int32(len(ps.refs)))
		}
		ps.refs = append(ps.refs, ly.refs[i])
		ps.at = append(ps.at, liveSlot{int32(g), int32(i) - ly.refOff[g]})
	})
	for len(ps.inst) <= insts {
		ps.inst = append(ps.inst, int32(len(ps.refs)))
	}
	return ps
}

// forLive calls f(g, i) for each live role value of member b in group
// order: g is the value's group and ly.refs[i] its evaluation view.
// Liveness is read from column liveness at each block head, as
// readBack reads domains.
func (run *masparRun) forLive(b int, f func(g, i int)) {
	ly := run.ly
	base := b * run.stride
	for g := 0; g < ly.s; g++ {
		head := ly.blockHead(g)
		if head >= (g+1)*ly.s {
			continue
		}
		pe := base + head
		w, bit := pe>>6, uint64(1)<<(uint(pe)&63)
		lo := int(ly.refOff[g])
		for i := lo; i < int(ly.refOff[g+1]); i++ {
			if run.aliveColV[i-lo][w]&bit != 0 {
				f(g, i)
			}
		}
	}
}

// binarySegment is applyBinary's pass over gang segment b: it evaluates
// every unordered cross-instance pair of the member's live role values
// once, in both orientations, and clears a failing pair at both of its
// mirrored PEs. Duplicate segments are copied from their class
// representative afterwards.
func (run *masparRun) binarySegment(b int) {
	if run.dupSeg(b) {
		return
	}
	ps := run.listLive(b)
	ck := &run.cks[b]
	base := b * run.stride
	for k := 0; k+1 < len(ps.inst); k++ {
		lo, hi := ps.inst[k], ps.inst[k+1]
		ys := ps.refs[hi:]
		if len(ys) == 0 {
			break
		}
		fwd, rev := ps.fwd[:len(ys)], ps.rev[:len(ys)]
		for i := lo; i < hi; i++ {
			ck.Check2Span(ps.refs[i], ys, fwd)
			ck.Check2SpanRev(ps.refs[i], ys, rev)
			x := ps.at[i]
			for t, ok := range fwd {
				if !ok || !rev[t] {
					y := ps.at[int(hi)+t]
					run.clearElem(base, x, y)
					run.clearElem(base, y, x)
				}
			}
		}
	}
}

// clearElem clears arc element (x.ls, y.ls) at the PE of column group
// x.g and row group y.g, in the segment whose first lane is base.
func (run *masparRun) clearElem(base int, x, y liveSlot) {
	pe := base + int(x.g)*run.ly.s + int(y.g)
	run.bitsV[int(x.ls)*run.ly.l+int(y.ls)][pe>>6] &^= uint64(1) << (uint(pe) & 63)
}

// bindCheckers binds c's compiled form to every gang member's sentence,
// reusing the run's checker scratch: the prologue runs once per member
// per constraint, and the work inside the machine's check instructions
// is then just bytecode over the fixed stack. Duplicate segments are bound too
// (Bind is cheap and keeps indexing uniform); dupSeg skips their checks.
func (run *masparRun) bindCheckers(c *cdg.Constraint) {
	for b, sent := range run.sents {
		run.cks[b] = c.Bind(sent)
	}
}

// consistencyRound is Figure 12: for every role value, OR its arc
// elements per incident arc (segmented scanOr inside the column block),
// AND the per-arc results (segmented scanAnd over the boundary PEs),
// copy-scan the verdict back across the block, mirror it to the row
// side through the router, and zero the arc elements of the dead. It
// fills segChanged with each segment's "did any role value die" bit
// and reports their OR.
//
// The instruction schedule is the cycle-accounting contract (PlanMasPar
// counts 6l+1 elementals, 3l+1 scans, and l routers per round): every
// charged operation below corresponds one-to-one to an operation of the
// scalar formulation. Scratch vectors come from the machine's arena, so
// a round allocates nothing in steady state. The host skips the ORs of
// dead column slots and re-masks only words whose liveness changed.
func (run *masparRun) consistencyRound() bool {
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
		// Per-PE OR over the row label slots of this column value.
		ac := run.aliveColV[lc]
		m.AllWords(func(w int, active uint64) {
			if ac[w] == 0 {
				tmp[w] = 0
				return
			}
			var t uint64
			for lr := 0; lr < ly.l; lr++ {
				t |= run.bitsV[lc*ly.l+lr][w]
			}
			tmp[w] = t & active
		})
		// OR along each arc segment, result at the arc's first PE.
		t0 := run.attr.start()
		m.SegReduceOrToHeadV(perArc, tmp, run.arcSegHeadW)
		// AND the per-arc results across the column block: only the
		// boundary PEs participate (Figure 12's "PE disabled only
		// during the scanAnd").
		m.SetMaskWords(run.scanAndMaskW)
		m.SegReduceAndToHeadV(blockSup, perArc, run.blockFirstActiveW)
		// Re-enable the block and distribute the verdict.
		m.SetMaskWords(run.baseMaskW)
		m.CopySegHeadV(dist, blockSup, run.blockFirstActiveW)
		run.attr.scan(t0)
		// A value stays alive only if it was alive and is supported.
		m.AllWords(func(w int, active uint64) {
			old := ac[w]
			now := old & (dist[w] | ^active)
			ac[w] = now
			changed[w] |= old ^ now
		})
	}

	// Mirror column liveness to the row side through the global router
	// (one transpose permutation per label slot, word-parallel and
	// segment-local). rowChanged records the lanes whose row liveness
	// changed, in perArc's storage (free once the column loop is done).
	rowChanged := perArc
	clearVec(rowChanged)
	for ls := 0; ls < ly.l; ls++ {
		acv, arv := run.aliveColV[ls], run.aliveRowV[ls]
		m.AllWords(func(w int, active uint64) { tmp[w] = acv[w] & active })
		t0 := run.attr.start()
		m.RouterTransposeV(dist, tmp, ly.s)
		run.attr.router(t0)
		m.AllWords(func(w int, active uint64) {
			old := arv[w]
			now := (dist[w] & active) | (old &^ active)
			arv[w] = now
			rowChanged[w] |= old ^ now
		})
	}

	// Zero rows/columns of the newly dead (decision #4: dimensions are
	// never reduced, entries are zeroed).
	m.AllWords(func(w int, active uint64) {
		if changed[w]|rowChanged[w] == 0 {
			return
		}
		for lc := 0; lc < ly.l; lc++ {
			ac := run.aliveColV[lc][w]
			for lr := 0; lr < ly.l; lr++ {
				run.bitsV[lc*ly.l+lr][w] &= (ac & run.aliveRowV[lr][w]) | ^active
			}
		}
	})

	// One segmented reduce tells the ACU which members still changed —
	// the gang image of the solo round's global ReduceOr, charged
	// identically (one scan).
	t0 := run.attr.start()
	m.SegmentOrV(changed, run.segChanged)
	run.attr.scan(t0)
	any := false
	for _, ch := range run.segChanged {
		if ch == 1 {
			any = true
			break
		}
	}
	return any
}

// settleConverged settles every sentence whose segment reported no
// change this round: its counters become the stream's charges so far —
// exactly a solo run's final counters, since the prefix of the shared
// stream IS the solo program (asserted by TestGangMatchesSolo) — and
// later rounds, fixpoint no-ops for it, are not charged to it.
func (run *masparRun) settleConverged() {
	for b := range run.done {
		if !run.done[b] && run.segChanged[b] == 0 {
			run.settle(b)
		}
	}
}

// finish settles every member still outstanding (iteration bound hit,
// filtering off, or per-constraint mode).
func (run *masparRun) finish() {
	for b := range run.done {
		if !run.done[b] {
			run.settle(b)
		}
	}
}

func (run *masparRun) settle(b int) {
	run.done[b] = true
	run.rounds[b] = run.roundsRun
	run.snaps[b] = metrics.Counters{
		Cycles:           run.m.Cycles,
		ScanOps:          run.m.ScanOps,
		RouterOps:        run.m.RouterOps,
		Broadcasts:       run.m.Broadcasts,
		ConstraintChecks: run.m.ConstraintChecks,
		Processors:       uint64(run.ly.V()),
		VirtualLayers:    uint64(run.m.Layers()),
		FilterIterations: uint64(run.roundsRun),
	}
}

// readBack materializes gang member b's PE state as a cn.Network
// (domains read at each column block's first active PE; matrix bits
// read from the PE owning each (column, row) group pair — all offset
// into segment b's lanes). Only pairs of live domain entries are read:
// column liveness is uniform across a block, and each PE's row
// liveness is its row group's (unary steps clear both sides from the
// same verdicts, and every consistency round ends by mirroring the
// column side), so by the live-slot invariant every other matrix bit
// is zero.
func (run *masparRun) readBack(b int) *cn.Network {
	ly, sp := run.ly, run.sps[b]
	base := b * run.stride
	nw := cn.NewShell(sp)
	n := sp.N()

	// Domains.
	for g := 0; g < ly.s; g++ {
		pos, role, mod := ly.Group(g)
		gr := sp.GlobalRole(pos, role)
		// The block's first active PE carries the authoritative
		// liveness for the column group.
		first := ly.blockHead(g)
		if first >= (g+1)*ly.s {
			continue
		}
		first += base
		labels := sp.Grammar().RoleLabels(role)
		for ls := range labels {
			if run.aliveColAt(first, ls) == 1 {
				nw.Domain(gr).SetBit(ls*(n+1) + mod)
			}
		}
	}

	// Arc matrices. Domain entry i is label slot i/(n+1), modifiee
	// i mod (n+1).
	for _, arc := range nw.Arcs() {
		posA, ra := sp.RoleAt(arc.A)
		posB, rb := sp.RoleAt(arc.B)
		domB := nw.Domain(arc.B)
		nw.Domain(arc.A).ForEach(func(i int) {
			col := base + ly.GroupOf(posA, ra, i%(n+1))*ly.s
			domB.ForEach(func(j int) {
				if run.bitAt(col+ly.GroupOf(posB, rb, j%(n+1)), i/(n+1), j/(n+1)) == 1 {
					arc.M.SetBit(i, j)
				}
			})
		})
	}
	return nw
}

// countersFor returns gang member b's attributed work accounting: the
// snapshot taken when it settled.
func (run *masparRun) countersFor(b int) *metrics.Counters {
	c := run.snaps[b]
	return &c
}
