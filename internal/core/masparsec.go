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
//     elements — O(k) elemental work with no communication. A unary
//     verdict never reads liveness, so the host clears the violators
//     of a run of unary constraints with one sweep over the plural
//     state; the ACU still issues, and is charged, one instruction per
//     constraint.
//  4. Consistency maintenance is the scanOr/scanAnd construction of
//     Figure 12 (decision #3), one round costing O(log P); filtering
//     runs a bounded number of rounds (decision #5), or to fixpoint
//     when exact agreement with the serial engine is wanted. The host
//     runs each round's scans, then clears the unsupported values from
//     both liveness sides with the sweep the unary phase uses; the ACU
//     still issues, and is charged, the round's router mirror, zeroing
//     and change reduce.
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

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/maspar"
	"repro/internal/metrics"
)

// masparRun holds the plural state of one sentence's run.
type masparRun struct {
	ly   *Layout
	m    *maspar.Machine
	gr   *cdg.Grammar
	sp   *cdg.Space
	sent *cdg.Sentence

	// ck is the compiled checker of the constraint currently being
	// propagated, bound to the sentence. attr, when non-nil, receives
	// per-stage wall-clock attribution.
	ck   cdg.Checker
	attr *Attribution

	// bitsV[lc·l+lr] is the packed plural vector of arc-element (lc,lr)
	// across all PEs — the mirrored arc-element store, l×l bits per PE.
	bitsV [][]uint64
	// aliveColV[ls] is the packed liveness of each PE's column group's
	// role value with label slot ls; aliveRowV is the row-side mirror.
	aliveColV [][]uint64
	aliveRowV [][]uint64

	// sets holds a group set (see Layout) per label slot ls, setWords
	// words each at groupSet(ls): the groups whose value is live inside
	// initAlive, then the values to clear at the next sweepDead — the
	// violators of the unary constraints applied since the last sweep,
	// or the values a consistency round found unsupported. The sets are
	// empty between those steps. verdicts is the Check1Span output over
	// the layout's refs. Both are host buffers reused across
	// constraints.
	sets     []uint64
	setWords int
	verdicts []bool

	// list is the live role values as applyBinary pairs them, valid
	// while listed holds; initAlive and sweepDead, the only writers of
	// column liveness, clear listed when they change it. fwd and rev are
	// one value's binary verdicts against the later and the earlier
	// values.
	list     liveList
	listed   bool
	fwd, rev []bool

	// tmp, perArc, blockSup and dist are the consistency round's
	// plural scratch, owned by the run so a round allocates nothing.
	// heads lists, for the column slot a round is scanning, the blocks
	// whose head holds a live value of it, and ranges the words those
	// blocks span from their heads, merged where two share a word.
	tmp, perArc, blockSup, dist []uint64
	heads                       []colHead
	ranges                      []maspar.WordRange

	// roundsRun counts the consistency rounds run. changed is the last
	// round's change reduce: whether any role value died in it.
	roundsRun int
	changed   bool
}

// groupSet returns the group set of label slot ls.
func (run *masparRun) groupSet(ls int) []uint64 {
	i := ls * run.setWords
	return run.sets[i : i+run.setWords : i+run.setWords]
}

// markSets adds to the group sets: group g joins slot ls's set when
// in(i, ls) holds for the group's role value ly.refs[i]. Only groups
// 0..S−1 are written; extendSets extends the sets before any word reads
// them.
func (run *masparRun) markSets(in func(i, ls int) bool) {
	ly := run.ly
	for g := 0; g < ly.s; g++ {
		lo := int(ly.refOff[g])
		for i := lo; i < int(ly.refOff[g+1]); i++ {
			if in(i, i-lo) {
				run.groupSet(i - lo)[g>>6] |= uint64(1) << (uint(g) & 63)
			}
		}
	}
}

// extendSets extends every group set periodically (see Layout) so that
// words can read them, and reports whether any set holds a group.
// Empty sets are left as they are.
func (run *masparRun) extendSets() (marked bool) {
	for ls := 0; ls < run.ly.l; ls++ {
		set := run.groupSet(ls)
		if slices.ContainsFunc(set, func(x uint64) bool { return x != 0 }) {
			run.ly.extendGroupSet(set)
			marked = true
		}
	}
	return marked
}

// Accessors for the packed plural state (tests and readBack use these;
// the hot loops below work on whole words).

func (run *masparRun) bitAt(pe, lc, lr int) maspar.Bit {
	return maspar.Bit(run.bitsV[lc*run.ly.l+lr][pe>>6] >> (uint(pe) & 63) & 1)
}

func (run *masparRun) aliveColAt(pe, ls int) maspar.Bit {
	return maspar.Bit(run.aliveColV[ls][pe>>6] >> (uint(pe) & 63) & 1)
}

func (run *masparRun) aliveRowAt(pe, ls int) maspar.Bit {
	return maspar.Bit(run.aliveRowV[ls][pe>>6] >> (uint(pe) & 63) & 1)
}

// Live-slot skips. Every step keeps the arc-element store inside the
// liveness it was derived from:
//
//	bitsV[lc·l+lr][w] ⊆ aliveColV[lc][w] ∧ aliveRowV[lr][w] ∧ mask[w]
//
// initBits establishes it, sweepDead re-establishes it whenever
// liveness shrinks (after a unary run and in every consistency round),
// and binary passes only clear bits. So a (lc, lr) word whose column
// or row slot is dead in word w is zero there, and a word whose
// liveness did not change needs no re-masking. The host sweeps skip both; the ACU instructions, and
// so every counter, are unchanged. hoist_test.go asserts the invariant
// after every step.

// slotBit is label slot ls's bit in a per-word slot mask. Slots alias
// mod 64 (a role has at most 255 labels): an aliased mask only adds
// slots, and sweeping a slot the mask adds is a no-op by the invariant.
func slotBit(ls int) uint64 { return uint64(1) << (uint(ls) & 63) }

// runMasPar executes the full algorithm for one sentence on m and
// returns the run and the final network. The context is checked
// between ACU constraint broadcasts and between consistency rounds — a
// cancelled parse stops mid-algorithm and the partial PE state is
// discarded.
func runMasPar(ctx context.Context, sp *cdg.Space, m *maspar.Machine, consistencyPerConstraint bool, filter bool, maxIters int, attr *Attribution) (*masparRun, *cn.Network, error) {
	run, err := newMasParRun(sp, m, attr)
	if err != nil {
		return nil, nil, err
	}
	run.initAlive()
	run.initBits()

	// Constraint propagation: the ACU broadcasts each constraint, all
	// PEs apply it to their local arc elements.
	if err := run.propagateUnary(ctx, consistencyPerConstraint); err != nil {
		return nil, nil, err
	}
	for _, bc := range run.gr.Binary() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		run.applyBinary(bc)
		if consistencyPerConstraint {
			run.consistencyRound()
		}
	}

	// Consistency maintenance + filtering: rounds until one changes
	// nothing, or until the iteration bound.
	if filter {
		for {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if maxIters > 0 && run.roundsRun >= maxIters {
				break
			}
			if !run.consistencyRound() {
				break
			}
		}
	} else if !consistencyPerConstraint {
		// At minimum one round, so unsupported role values are
		// eliminated at all (the paper always runs consistency
		// maintenance after propagation).
		run.consistencyRound()
	}
	return run, run.readBack(), nil
}

// newMasParRun sets the machine up for one sentence and loads the
// plural program's fixed state: the layout's masks, the ACU's table-T
// broadcast, and zeroed plural vectors, which the run owns along with
// its round scratch. Propagation starts with initAlive.
func newMasParRun(sp *cdg.Space, m *maspar.Machine, attr *Attribution) (*masparRun, error) {
	if sp.NumRoles() < 2 {
		return nil, fmt.Errorf("core: the MasPar layout needs at least two roles in the network (got %d)", sp.NumRoles())
	}
	ly := layoutFor(sp)
	if _, err := m.Setup(ly.V()); err != nil {
		return nil, err
	}
	l := ly.L()
	nw := m.WordLen()
	run := &masparRun{
		ly:        ly,
		m:         m,
		gr:        sp.Grammar(),
		sp:        sp,
		sent:      sp.Sentence(),
		attr:      attr,
		bitsV:     make([][]uint64, l*l),
		aliveColV: make([][]uint64, l),
		aliveRowV: make([][]uint64, l),
		sets:      make([]uint64, l*ly.groupSetWords()),
		setWords:  ly.groupSetWords(),
		verdicts:  make([]bool, len(ly.refs)),
		tmp:       make([]uint64, nw),
		perArc:    make([]uint64, nw),
		blockSup:  make([]uint64, nw),
		dist:      make([]uint64, nw),
		heads:     make([]colHead, 0, len(ly.heads)),
		ranges:    make([]maspar.WordRange, 0, len(ly.heads)),
	}
	for i := range run.bitsV {
		run.bitsV[i] = make([]uint64, nw)
	}
	for ls := 0; ls < l; ls++ {
		run.aliveColV[ls] = make([]uint64, nw)
		run.aliveRowV[ls] = make([]uint64, nw)
	}

	// ACU broadcast: sentence words/categories and the table-T slices
	// (Layout.allowed) every PE needs to interpret its PE id.
	m.BroadcastData()

	// Disable the role-to-itself blocks for the whole parse.
	m.SetMaskWords(ly.baseMaskW)
	return run, nil
}

// The propagation steps below evaluate per (group, label slot) rather
// than per PE. A role value's verdict depends only on its group, label
// slot and sentence, and every PE of its column block (and of its row
// stripe) reaches that same verdict — the redundancy by which the SIMD
// array avoids communication. The host therefore evaluates each verdict
// once and writes the result into whole packed words (a binary verdict,
// once per pair of values, into both mirrored PEs); the ACU instruction
// each step issues, and so every cycle, check and counter, is
// unchanged. The per-PE formulation is kept in hoist_test.go as the
// reference these steps are held bit-identical to.

// initAlive fills aliveColV and aliveRowV: a value is live when its
// slot is a real label of the role and table T (with the per-category
// restriction) admits it for the word's category. Each PE computes both
// sides locally from its id — no communication (design decision #2) —
// in one elemental instruction.
func (run *masparRun) initAlive() {
	ly, sent := run.ly, run.sent
	run.markSets(func(i, ls int) bool {
		cat, ok := sent.Cat(ly.refs[i].Pos)
		return ok && ly.allowed[ly.refs[i].Role][cat][ls]
	})
	run.extendSets()
	run.m.AllWords(func(w int, active uint64) {
		a := w << 6
		off := a % ly.s
		for ls := 0; ls < ly.l; ls++ {
			set := run.groupSet(ls)
			run.aliveColV[ls][w] = ly.colLanes(set, a) & active
			run.aliveRowV[ls][w] = rowLanes(set, off) & active
		}
	})
	clear(run.sets)
	run.listed = false
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

// propagateUnary broadcasts the grammar's unary constraints and clears
// their violators with one sweepDead after the last. With
// per-constraint consistency rounds it sweeps after every constraint
// instead, so each round sees its constraint applied. Its sweeps count
// as eval time.
func (run *masparRun) propagateUnary(ctx context.Context, perConstraint bool) error {
	sweep := func() {
		t0 := run.attr.start()
		run.sweepDead()
		run.attr.eval(t0)
	}
	for _, uc := range run.gr.Unary() {
		if err := ctx.Err(); err != nil {
			return err
		}
		run.applyUnary(uc)
		if perConstraint {
			sweep()
			run.consistencyRound()
		}
	}
	if !perConstraint {
		sweep()
	}
	return nil
}

// applyUnary broadcasts one unary constraint: every PE checks its
// column-side and row-side role values locally and zeroes the liveness
// and arc elements of violators. The host evaluates each verdict once
// per (group, slot) and only ORs the violators into the group sets;
// sweepDead clears them from the plural state. A unary verdict reads
// the role value and the sentence, never liveness, so sweeping the
// union of a run's violators once leaves the same liveness and arc
// elements as sweeping after each constraint. The machine charges the
// constraint's instruction here, 2l checks per PE, through
// ChargeAllChecks.
func (run *masparRun) applyUnary(c *cdg.Constraint) {
	ly := run.ly
	run.ck = c.Bind(run.sent)
	t0 := run.attr.start()
	defer run.attr.eval(t0)
	run.ck.Check1Span(ly.refs, run.verdicts)
	run.markSets(func(i, _ int) bool { return !run.verdicts[i] })
	run.m.ChargeAllChecks(2 * ly.l)
}

// sweepDead clears the values marked in the group sets — a unary run's
// violators (applyUnary) or a round's unsupported values
// (consistencyRound) — from both liveness sides, word-parallel, and
// masks the arc elements to match, then empties the group sets. Only
// live slots are swept, and a (lc, lr) word is re-masked only when its
// column or row slot lost a lane. The activity mask is the layout's
// baseMaskW, which the machine holds throughout propagation
// (consistencyRound restores it before it sweeps). Once a value is
// marked, the live values need listing again before the next binary
// pass. Host work only: the caller charges the instructions the sweep
// stands for, and attributes its time.
func (run *masparRun) sweepDead() {
	ly := run.ly
	if !run.extendSets() {
		return
	}
	run.listed = false
	for w, active := range ly.baseMaskW {
		a := w << 6
		off := a % ly.s
		var rowLive, rowLost uint64
		for lr := 0; lr < ly.l; lr++ {
			ar := run.aliveRowV[lr][w]
			if ar == 0 {
				continue
			}
			rowLive |= slotBit(lr)
			if lost := rowLanes(run.groupSet(lr), off) & ar & active; lost != 0 {
				run.aliveRowV[lr][w] = ar &^ lost
				rowLost |= slotBit(lr)
			}
		}
		for lc := 0; lc < ly.l; lc++ {
			ac := run.aliveColV[lc][w]
			if ac == 0 {
				continue
			}
			lost := ly.colLanes(run.groupSet(lc), a) & ac & active
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
	}
	clear(run.sets)
}

// applyBinary propagates one binary constraint. On the machine, every
// PE tests its l×l surviving pairs in both variable orientations, so
// each pair of role values is tested twice: at PE colGroup·S+rowGroup
// and at its transpose mirror. The host evaluates each unordered pair
// of live role values once instead: it lists the live values from
// column liveness at each block head and, per role instance, tests its
// values against the values of the other role instances in both
// orientations, each from a fixed side, so a fixed value that fails
// the constraint's antecedent fills its whole span at once: one
// Check2Span per value x gives c(x, y) over the later values, and one
// per value y gives c(y, x) over the earlier values, the reverse
// orientation's verdicts in transposed order. A failing pair is
// cleared at its PE, element (lc, lr), and at the mirror, element
// (lr, lc); clearing is idempotent, so each orientation clears its own
// failures. This is exact: the both-orientation test gives one verdict
// at both mirror positions; by the live-slot invariant every set bit
// lies on a live×live pair; and same-instance pairs sit only on masked
// PEs. A binary pass clears arc elements, never liveness, so the list
// is kept until a sweep changes liveness: it is made once for all the
// binary constraints, or again after each round's sweep with
// per-constraint rounds. The machine charges the constraint's
// instruction, 2l² checks per PE as before, through ChargeAllChecks.
func (run *masparRun) applyBinary(c *cdg.Constraint) {
	run.ck = c.Bind(run.sent)
	t0 := run.attr.start()
	defer run.attr.eval(t0)
	if !run.listed {
		run.listLive(&run.list)
		run.listed = true
	}
	ll, ck := &run.list, &run.ck
	for k := 0; k+1 < len(ll.inst); k++ {
		lo, hi := int(ll.inst[k]), int(ll.inst[k+1])
		later, earlier := ll.refs[hi:], ll.refs[:lo]
		fwd, rev := run.fwd[:len(later)], run.rev[:len(earlier)]
		for i := lo; i < hi; i++ {
			ck.Check2Span(ll.refs[i], later, fwd)
			run.clearFailed(ll.at[i], ll.at[hi:], fwd)
			ck.Check2Span(ll.refs[i], earlier, rev)
			run.clearFailed(ll.at[i], ll.at[:lo], rev)
		}
	}
	run.m.ChargeAllChecks(2 * run.ly.l * run.ly.l)
}

// liveList holds the live role values for the binary pass. refs lists
// them group-major, at[i] gives refs[i]'s group and label slot, and
// inst[k] is the index of the first value of role instance k or later
// (inst[q·n] == len(refs)). Liveness only shrinks, so a list is rebuilt
// in place without allocating.
type liveList struct {
	refs []cdg.RVRef
	at   []liveSlot
	inst []int32
}

// liveSlot locates a live role value: its group and label slot.
type liveSlot struct{ g, ls int32 }

// listLive fills ll with the live role values and grows the verdict
// spans to hold them.
func (run *masparRun) listLive(ll *liveList) {
	ly := run.ly
	count := 0
	run.forLive(func(int, int) { count++ })
	ll.refs = slices.Grow(ll.refs[:0], count)
	ll.at = slices.Grow(ll.at[:0], count)
	run.fwd = slices.Grow(run.fwd[:0], count)
	run.rev = slices.Grow(run.rev[:0], count)
	insts := ly.s / ly.n
	ll.inst = slices.Grow(ll.inst[:0], insts+1)
	run.forLive(func(g, i int) {
		for len(ll.inst) <= g/ly.n {
			ll.inst = append(ll.inst, int32(len(ll.refs)))
		}
		ll.refs = append(ll.refs, ly.refs[i])
		ll.at = append(ll.at, liveSlot{int32(g), int32(i) - ly.refOff[g]})
	})
	for len(ll.inst) <= insts {
		ll.inst = append(ll.inst, int32(len(ll.refs)))
	}
}

// forLive calls f(g, i) for each live role value in group order: g is
// the value's group and ly.refs[i] its evaluation view. Liveness is
// read from column liveness at each block head, as readBack reads
// domains.
func (run *masparRun) forLive(f func(g, i int)) {
	ly := run.ly
	for _, h := range ly.heads {
		w, bit := h.pe>>6, uint64(1)<<(uint(h.pe)&63)
		lo := int(ly.refOff[h.g])
		for i := lo; i < int(ly.refOff[h.g+1]); i++ {
			if run.aliveColV[i-lo][w]&bit != 0 {
				f(h.g, i)
			}
		}
	}
}

// clearFailed clears, at both mirrored PEs, the pair of x with each
// ys[t] whose verdict ok[t] is false.
func (run *masparRun) clearFailed(x liveSlot, ys []liveSlot, ok []bool) {
	for t, v := range ok {
		if !v {
			run.clearElem(x, ys[t])
			run.clearElem(ys[t], x)
		}
	}
}

// clearElem clears arc element (x.ls, y.ls) at the PE of column group
// x.g and row group y.g.
func (run *masparRun) clearElem(x, y liveSlot) {
	pe := int(x.g)*run.ly.s + int(y.g)
	run.bitsV[int(x.ls)*run.ly.l+int(y.ls)][pe>>6] &^= uint64(1) << (uint(pe) & 63)
}

// consistencyRound is Figure 12: for every role value, OR its arc
// elements per incident arc (segmented scanOr inside the column block),
// AND the per-arc results (segmented scanAnd over the boundary PEs),
// copy-scan the verdict back across the block, mirror it to the row
// side through the router, and zero the arc elements of the dead. It
// records in changed whether any role value died, the ACU's global OR
// reduce, and reports it.
//
// The instruction schedule is the cycle-accounting contract (PlanMasPar
// counts 6l+1 elementals, 3l+1 scans, and l routers per round): every
// charged operation below corresponds one-to-one to an operation of the
// scalar formulation. Per column slot, the host lists the column blocks
// whose head holds a live value of the slot (liveBlocks) and runs the
// slot's OR and its three scans over those blocks' words only, each
// scan through a Ranges entry point that charges it once. It then reads
// each live block's verdict at its head and marks the unsupported
// values in the group sets, and one sweepDead clears them from both
// liveness sides and re-masks only the words whose liveness changed.
// The column update, the router mirror, the zeroing and the change
// reduce are charged through charge-only calls. This is exact: column
// liveness and the copied verdict are uniform across a block, so a dead
// block has nothing to clear, and only live blocks' heads are read.
// Every segment of the three scans starts inside its own column block —
// arc segments at row groups divisible by n, the AND and copy segments
// at the block's head — and the lanes between a block's end and the
// next head are inactive self-arc lanes, which carry nothing. So no
// lane of a live block reads a lane outside it, and the scratch lanes
// outside the ranges, never read, may hold an earlier slot's values.
// Each PE's row liveness is its row group's column liveness, so the
// mirror of the new column side is the old row side minus the dead
// values' row lanes; and a support reads arc elements and masks, never
// another slot's liveness, so clearing every slot after the last scan
// changes nothing. The scratch is the run's own, so a round allocates
// nothing.
func (run *masparRun) consistencyRound() bool {
	ly, m := run.ly, run.m
	run.roundsRun++
	run.changed = false
	tmp, perArc, blockSup, dist := run.tmp, run.perArc, run.blockSup, run.dist

	for lc := 0; lc < ly.l; lc++ {
		run.liveBlocks(lc)
		// Per-PE OR over the row label slots of this column value. The
		// machine holds baseMaskW here.
		m.ChargeAllWords()
		elems := run.bitsV[lc*ly.l : (lc+1)*ly.l]
		for _, r := range run.ranges {
			for w := r.Lo; w < r.Hi; w++ {
				var t uint64
				for _, bv := range elems {
					t |= bv[w]
				}
				tmp[w] = t & ly.baseMaskW[w]
			}
		}
		// OR along each arc segment, result at the arc's first PE.
		t0 := run.attr.start()
		m.SegReduceOrToHeadRanges(perArc, tmp, ly.arcSegHeadW, run.ranges)
		// AND the per-arc results across the column block: only the
		// boundary PEs participate (Figure 12's "PE disabled only
		// during the scanAnd").
		m.SetMaskWords(ly.scanAndMaskW)
		m.SegReduceAndToHeadRanges(blockSup, perArc, ly.blockFirstActiveW, run.ranges)
		// Re-enable the block and distribute the verdict.
		m.SetMaskWords(ly.baseMaskW)
		m.CopySegHeadRanges(dist, blockSup, ly.blockFirstActiveW, run.ranges)
		run.attr.scan(t0)
		// A value stays alive only if it was alive and is supported.
		m.ChargeAllWords()
		run.markUnsupported(lc, dist)
	}

	// Mirror column liveness to the row side through the global router
	// (per label slot: stage the column side, one transpose permutation,
	// merge into the row side), then zero the rows and columns of the
	// newly dead (decision #4: dimensions are never reduced, entries are
	// zeroed). The one sweep does all of it on the host.
	for ls := 0; ls < ly.l; ls++ {
		m.ChargeAllWords()
		m.ChargeRouter()
		m.ChargeAllWords()
	}
	m.ChargeAllWords()
	t0 := run.attr.start()
	run.sweepDead()
	run.attr.router(t0)

	// One global OR reduce tells the ACU whether any value died.
	m.ChargeReduceOr()
	return run.changed
}

// liveBlocks fills heads with the column blocks whose head holds a live
// value of column slot lc, and ranges with the words they span from
// their heads, merged where two share a word.
func (run *masparRun) liveBlocks(lc int) {
	ly, ac := run.ly, run.aliveColV[lc]
	run.heads, run.ranges = run.heads[:0], run.ranges[:0]
	for _, h := range ly.heads {
		if ac[h.pe>>6]>>(uint(h.pe)&63)&1 == 0 {
			continue
		}
		run.heads = append(run.heads, h)
		lo, hi := h.pe>>6, ((h.g+1)*ly.s-1)>>6+1
		if k := len(run.ranges) - 1; k >= 0 && run.ranges[k].Hi > lo {
			run.ranges[k].Hi = hi
		} else {
			run.ranges = append(run.ranges, maspar.WordRange{Lo: lo, Hi: hi})
		}
	}
}

// markUnsupported marks, in the group set of column slot lc, the live
// values whose support verdict dist reads 0 at their block head, and
// records the change. It reads only the heads liveBlocks listed.
func (run *masparRun) markUnsupported(lc int, dist []uint64) {
	for _, h := range run.heads {
		if dist[h.pe>>6]>>(uint(h.pe)&63)&1 == 0 {
			run.groupSet(lc)[h.g>>6] |= uint64(1) << (uint(h.g) & 63)
			run.changed = true
		}
	}
}

// counters returns the run's work accounting, read from the machine.
func (run *masparRun) counters() *metrics.Counters {
	m := run.m
	return &metrics.Counters{
		Cycles:           m.Cycles,
		ScanOps:          m.ScanOps,
		RouterOps:        m.RouterOps,
		Broadcasts:       m.Broadcasts,
		ConstraintChecks: m.ConstraintChecks,
		Processors:       uint64(run.ly.V()),
		VirtualLayers:    uint64(m.Layers()),
		FilterIterations: uint64(run.roundsRun),
	}
}

// readBack materializes the PE state as a cn.Network (domains read at
// each column block's first active PE; matrix bits read from the PE
// owning each (column, row) group pair). Only pairs of live domain
// entries are read: column liveness is uniform across a block, and each
// PE's row liveness is its row group's (every sweepDead, after a unary
// run or in a consistency round, clears both sides from the same group
// sets), so by the live-slot invariant every other matrix bit is zero.
func (run *masparRun) readBack() *cn.Network {
	ly, sp := run.ly, run.sp
	nw := cn.NewShell(sp)
	n := sp.N()

	// Domains. The block's first active PE carries the authoritative
	// liveness for the column group.
	for _, h := range ly.heads {
		pos, role, mod := ly.Group(h.g)
		gr := sp.GlobalRole(pos, role)
		labels := sp.Grammar().RoleLabels(role)
		for ls := range labels {
			if run.aliveColAt(h.pe, ls) == 1 {
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
			col := ly.GroupOf(posA, ra, i%(n+1)) * ly.s
			domB.ForEach(func(j int) {
				if run.bitAt(col+ly.GroupOf(posB, rb, j%(n+1)), i/(n+1), j/(n+1)) == 1 {
					arc.M.SetBit(i, j)
				}
			})
		})
	}
	return nw
}
