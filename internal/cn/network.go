// Package cn implements the CDG constraint network of section 1 of the
// paper: one node per word, q roles per node, a domain of role values
// per role, and an arc with a compatibility bit-matrix between every
// pair of distinct roles.
//
// The package provides the network primitives — construction, unary and
// binary constraint propagation, consistency maintenance, filtering, and
// parse extraction. Engine drivers (internal/serial, internal/pram,
// internal/core) sequence these primitives according to their machine
// model; the reference semantics live here.
//
// Matrices are full-dimensional for the life of the parse: a role value
// that dies has its domain bit cleared and its rows/columns zeroed, but
// indices never shift (the paper's design decision #4). Consistency
// maintenance uses simultaneous two-phase semantics — first every role
// value's support is computed against the current matrices, then all
// unsupported values are eliminated at once — which is exactly what the
// CRCW P-RAM and MasPar formulations do and makes all three engines
// bit-for-bit comparable.
package cn

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cdg"
	"repro/internal/metrics"
)

// Arc connects two distinct global roles A < B. Entry (i, j) of M is 1
// iff role value i of A and role value j of B may legally coexist.
type Arc struct {
	A, B int
	M    *bitset.Matrix
}

// Network is the constraint network for one sentence.
type Network struct {
	sp      *cdg.Space
	domains []*bitset.Set
	arcs    []*Arc
	// arcAt[a][b] is the index into arcs for the pair {a,b}, or -1 on
	// the diagonal.
	arcAt [][]int

	// scr holds the reusable buffers of the span-based propagation
	// loops. Network methods are single-goroutine by contract (the
	// parallel engines drive their own sweeps over the primitives), so
	// one scratch set per network suffices and steady-state propagation
	// allocates nothing.
	scr evalScratch

	// Counters receives the work accounting; never nil.
	Counters *metrics.Counters
}

// evalScratch backs the propagation and elimination loops: the live
// role values of the swept domain, their domain indices, the verdict
// spans the bytecode evaluator fills in one call per row, and the bit
// sets that remove role values and test their support a word at a time
// (made on first use by sets, then reused).
type evalScratch struct {
	refs []cdg.RVRef
	idxs []int
	fwd  []bool
	rev  []bool
	cks  []cdg.Checker
	// roles[gr] holds global role gr's victims between a sweep and their
	// removal; during a consistency pass it first holds the role's
	// values whose support walk has not yet failed.
	roles []*bitset.Set
	// rowSup[r] and colSup[r] receive the row and the column support
	// of the arc being read, sized for role r (a cdg.RoleID) of the
	// word whose role indexes the arc's rows or its columns.
	rowSup, colSup []*bitset.Set
}

// sets returns the per-role scratch sets, making them and the support
// vectors on first use.
func (nw *Network) sets() []*bitset.Set {
	if nw.scr.roles == nil {
		nw.scr.roles = make([]*bitset.Set, len(nw.domains))
		for gr, d := range nw.domains {
			nw.scr.roles[gr] = bitset.New(d.Len())
		}
		q := nw.sp.Q()
		nw.scr.rowSup = make([]*bitset.Set, q)
		nw.scr.colSup = make([]*bitset.Set, q)
		for r := 0; r < q; r++ {
			n := nw.sp.RVCount(cdg.RoleID(r))
			nw.scr.rowSup[r], nw.scr.colSup[r] = bitset.New(n), bitset.New(n)
		}
	}
	return nw.scr.roles
}

// liveRefs fills the scratch ref/index buffers with the live role
// values of global role gr, in ascending index order (the order every
// pre-span loop enumerated them in).
func (nw *Network) liveRefs(gr int) ([]cdg.RVRef, []int) {
	pos, r := nw.sp.RoleAt(gr)
	nw.scr.refs = nw.scr.refs[:0]
	nw.scr.idxs = nw.scr.idxs[:0]
	nw.domains[gr].ForEach(func(idx int) {
		nw.scr.refs = append(nw.scr.refs, nw.sp.RVRef(pos, r, idx))
		nw.scr.idxs = append(nw.scr.idxs, idx)
	})
	return nw.scr.refs, nw.scr.idxs
}

// boolSpan resizes buf to n verdicts, reusing its backing array.
func boolSpan(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// New builds the initial network: domains from table T, the lexicon
// category of each word, and the no-self-modification rule; arc matrices
// all-ones between alive values. This is the state of Figure 1 (with the
// paper's later design decision #1 — arcs built before unary
// propagation — baked in, which is harmless for the serial engine and
// required for the parallel ones).
func New(sp *cdg.Space) *Network {
	nw := &Network{sp: sp, Counters: &metrics.Counters{}}
	total := sp.NumRoles()
	nw.domains = make([]*bitset.Set, total)
	for gr := 0; gr < total; gr++ {
		pos, r := sp.RoleAt(gr)
		dom := bitset.New(sp.RVCount(r))
		for idx := 0; idx < sp.RVCount(r); idx++ {
			if sp.InitialAlive(pos, r, idx) {
				dom.SetBit(idx)
			}
		}
		nw.domains[gr] = dom
	}
	nw.arcAt = make([][]int, total)
	for a := 0; a < total; a++ {
		nw.arcAt[a] = make([]int, total)
		for b := range nw.arcAt[a] {
			nw.arcAt[a][b] = -1
		}
	}
	for a := 0; a < total; a++ {
		_, ra := sp.RoleAt(a)
		for b := a + 1; b < total; b++ {
			_, rb := sp.RoleAt(b)
			m := bitset.NewMatrix(sp.RVCount(ra), sp.RVCount(rb))
			nw.domains[a].ForEach(func(i int) {
				nw.domains[b].ForEach(func(j int) {
					m.SetBit(i, j)
					nw.Counters.MatrixWrites++
				})
			})
			idx := len(nw.arcs)
			nw.arcs = append(nw.arcs, &Arc{A: a, B: b, M: m})
			nw.arcAt[a][b] = idx
			nw.arcAt[b][a] = idx
		}
	}
	return nw
}

// NewShell builds a network with the same shape as New but with all
// domains empty and all matrices zero. Parallel engines fill a shell
// with their final machine state so every engine's result is inspected
// and compared through the same Network methods.
func NewShell(sp *cdg.Space) *Network {
	nw := &Network{sp: sp, Counters: &metrics.Counters{}}
	total := sp.NumRoles()
	nw.domains = make([]*bitset.Set, total)
	for gr := 0; gr < total; gr++ {
		_, r := sp.RoleAt(gr)
		nw.domains[gr] = bitset.New(sp.RVCount(r))
	}
	nw.arcAt = make([][]int, total)
	for a := 0; a < total; a++ {
		nw.arcAt[a] = make([]int, total)
		for b := range nw.arcAt[a] {
			nw.arcAt[a][b] = -1
		}
	}
	for a := 0; a < total; a++ {
		_, ra := sp.RoleAt(a)
		for b := a + 1; b < total; b++ {
			_, rb := sp.RoleAt(b)
			idx := len(nw.arcs)
			nw.arcs = append(nw.arcs, &Arc{A: a, B: b, M: bitset.NewMatrix(sp.RVCount(ra), sp.RVCount(rb))})
			nw.arcAt[a][b] = idx
			nw.arcAt[b][a] = idx
		}
	}
	return nw
}

// Space returns the role-value index space.
func (nw *Network) Space() *cdg.Space { return nw.sp }

// Domain returns the live role-value set of global role gr (do not
// mutate).
func (nw *Network) Domain(gr int) *bitset.Set { return nw.domains[gr] }

// Arcs returns all arcs (do not mutate).
func (nw *Network) Arcs() []*Arc { return nw.arcs }

// ArcBetween returns the arc joining global roles a and b, plus whether
// a indexes the rows (a < b). It panics on a == b: roles have no
// self-arc (the disabled PEs of Figure 11).
func (nw *Network) ArcBetween(a, b int) (arc *Arc, aIsRow bool) {
	if a == b {
		panic("cn: no self arc")
	}
	idx := nw.arcAt[a][b]
	return nw.arcs[idx], a < b
}

// Compatible reports whether role value ia of global role a can coexist
// with role value ib of global role b.
func (nw *Network) Compatible(a, ia, b, ib int) bool {
	arc, aIsRow := nw.ArcBetween(a, b)
	if aIsRow {
		return arc.M.Get(ia, ib)
	}
	return arc.M.Get(ib, ia)
}

// Eliminate removes role value idx from global role gr: the domain bit
// is cleared and the value's row/column is zeroed in every incident arc
// matrix — O(n²) work, as the paper charges for one consistency-
// maintenance elimination. It is remove with a single victim.
func (nw *Network) Eliminate(gr, idx int) {
	if !nw.domains[gr].Get(idx) {
		return
	}
	victims := nw.sets()[gr]
	victims.Zero()
	victims.SetBit(idx)
	nw.remove(gr, victims)
}

// remove eliminates the role values of global role gr that are set in
// victims, all of them live, and returns how many there were: one
// AND-NOT on the domain, then in each incident arc the victims' rows are
// zeroed or their columns cleared by one masked pass over the arc's live
// rows. Dead rows need no pass: every set matrix bit lies on a live×live
// pair, because New sets bits only there and every step after it only
// clears bits and zeroes whole rows and columns of the values it kills
// (CheckLivePairs tests this; a network filled through NewShell must be
// filled that way too before it is propagated).
//
// The counters charge each victim exactly what one per-value elimination
// costs in the paper's model — one Eliminations and, in MatrixWrites,
// the Σ RVCount(other) entries of its row or column in every incident
// arc — not the words this pass happens to touch.
func (nw *Network) remove(gr int, victims *bitset.Set) int {
	k := victims.Count()
	if k == 0 {
		return 0
	}
	dom := nw.domains[gr]
	dom.AndNot(dom, victims)
	nw.Counters.Eliminations += uint64(k)
	nw.Counters.MatrixWrites += uint64(k) * nw.sweepCost(gr)
	for other, d := range nw.domains {
		switch {
		case other < gr:
			nw.arcs[nw.arcAt[other][gr]].M.ClearCols(d, victims)
		case other > gr:
			nw.arcs[nw.arcAt[gr][other]].M.ZeroRows(victims)
		}
	}
	return k
}

// sweepCost is Σ RVCount over every global role but gr: the matrix
// entries one elimination in gr sweeps.
func (nw *Network) sweepCost(gr int) uint64 {
	all := 0
	for r := 0; r < nw.sp.Q(); r++ {
		all += nw.sp.RVCount(cdg.RoleID(r))
	}
	_, r := nw.sp.RoleAt(gr)
	return uint64(nw.sp.N()*all - nw.sp.RVCount(r))
}

// ApplyUnary propagates one unary constraint: every live role value is
// checked, and each role's violators are removed together. O(n²)
// checks, matching §1.4.
func (nw *Network) ApplyUnary(c *cdg.Constraint) int {
	if c.Arity != 1 {
		panic("cn: ApplyUnary needs a unary constraint")
	}
	ck := c.Bind(nw.sp.Sentence())
	sets := nw.sets()
	eliminated := 0
	for gr := range nw.domains {
		refs, idxs := nw.liveRefs(gr)
		out := boolSpan(&nw.scr.fwd, len(refs))
		ck.Check1Span(refs, out)
		nw.Counters.ConstraintChecks += uint64(len(refs))
		victims := sets[gr]
		victims.Zero()
		for k, idx := range idxs {
			if !out[k] {
				victims.SetBit(idx)
			}
		}
		eliminated += nw.remove(gr, victims)
	}
	return eliminated
}

// ApplyBinary propagates one binary constraint over every arc: each
// surviving pair is tested in both variable orientations and the matrix
// bit is zeroed on violation. O(n⁴) pair checks, matching §1.4. It does
// not run consistency maintenance; callers sequence that separately.
//
// The sweep is span-shaped: one row value against the whole live
// column set per bytecode call, both orientations evaluated up front.
// The evaluator may therefore run on pairs whose matrix bit is already
// zero (or whose forward orientation failed); ConstraintChecks charges
// exactly the checks the per-pair loop performed — one per surviving
// pair plus one per forward pass — so counters are bit-identical to
// the pre-span accounting and to the AST fallback.
//
// The arcs are visited grouped by their column role B, so B's live
// values are listed once per sweep, not once per arc. The order cannot
// change state or counters: domains do not change during the sweep,
// and each arc's verdicts and clears touch only its own matrix.
func (nw *Network) ApplyBinary(c *cdg.Constraint) int {
	if c.Arity != 2 {
		panic("cn: ApplyBinary needs a binary constraint")
	}
	ck := c.Bind(nw.sp.Sentence())
	zeroed := 0
	for b := 1; b < len(nw.domains); b++ {
		ys, js := nw.liveRefs(b)
		fwd := boolSpan(&nw.scr.fwd, len(ys))
		rev := boolSpan(&nw.scr.rev, len(ys))
		for a := 0; a < b; a++ {
			arc := nw.arcs[nw.arcAt[a][b]]
			posA, ra := nw.sp.RoleAt(a)
			nw.domains[a].ForEach(func(i int) {
				refA := nw.sp.RVRef(posA, ra, i)
				ck.Check2Span(refA, ys, fwd)
				ck.Check2SpanRev(refA, ys, rev)
				for k, j := range js {
					if !arc.M.Get(i, j) {
						continue
					}
					nw.Counters.ConstraintChecks++
					ok := fwd[k]
					if ok {
						nw.Counters.ConstraintChecks++
						ok = rev[k]
					}
					if !ok {
						arc.M.ClearBit(i, j)
						nw.Counters.MatrixWrites++
						zeroed++
					}
				}
			})
		}
	}
	return zeroed
}

// ApplyBinaryAll propagates every given binary constraint in a single
// sweep over the arcs: each surviving pair is enumerated once and
// tested against all constraints (in both orientations) before moving
// on. The fixpoint is identical to applying the constraints one at a
// time — matrix bits only ever go 1→0 and each pair's verdict per
// constraint is independent of the others. The pair-enumeration
// overhead is paid once instead of len(cs) times, at the cost of losing
// the interleaved consistency passes that shrink domains between
// constraints (so the raw check count usually goes UP). This is the
// per-element "interpret all broadcast constraints" reading of Figure
// 8's mesh row.
func (nw *Network) ApplyBinaryAll(cs []*cdg.Constraint) int {
	for _, c := range cs {
		if c.Arity != 2 {
			panic("cn: ApplyBinaryAll needs binary constraints")
		}
	}
	nw.scr.cks = nw.scr.cks[:0]
	for _, c := range cs {
		nw.scr.cks = append(nw.scr.cks, c.Bind(nw.sp.Sentence()))
	}
	cks := nw.scr.cks
	zeroed := 0
	// Arcs grouped by column role, as in ApplyBinary.
	for b := 1; b < len(nw.domains); b++ {
		ys, js := nw.liveRefs(b)
		n := len(ys)
		// One fwd/rev verdict span per constraint, stride n, so the
		// per-pair loop below can replay the counted first-failure walk
		// (ConstraintChecks stops at a pair's first failing constraint,
		// exactly as the per-pair form did).
		fwd := boolSpan(&nw.scr.fwd, len(cks)*n)
		rev := boolSpan(&nw.scr.rev, len(cks)*n)
		for a := 0; a < b; a++ {
			arc := nw.arcs[nw.arcAt[a][b]]
			posA, ra := nw.sp.RoleAt(a)
			nw.domains[a].ForEach(func(i int) {
				refA := nw.sp.RVRef(posA, ra, i)
				for k := range cks {
					cks[k].Check2Span(refA, ys, fwd[k*n:(k+1)*n])
					cks[k].Check2SpanRev(refA, ys, rev[k*n:(k+1)*n])
				}
				for t, j := range js {
					if !arc.M.Get(i, j) {
						continue
					}
					for k := range cks {
						nw.Counters.ConstraintChecks++
						ok := fwd[k*n+t]
						if ok {
							nw.Counters.ConstraintChecks++
							ok = rev[k*n+t]
						}
						if !ok {
							arc.M.ClearBit(i, j)
							nw.Counters.MatrixWrites++
							zeroed++
							break
						}
					}
				}
			})
		}
	}
	return zeroed
}

// ConsistencyPass performs one simultaneous round of consistency
// maintenance: support is evaluated for every live role value against
// the current matrices, then every unsupported value is eliminated. It
// returns the number of eliminations.
//
// A value is supported when, in every incident arc, its row (or column)
// holds a 1 — the OR-then-AND of Figure 10. The test runs a word at a
// time: one read of each arc's live rows (Matrix.Support) yields the
// arc's row-support and column-support vectors, and each role ANDs its
// set of still-supported values with them. Arcs are stored in (A, B)
// order, so every role meets its incident arcs in ascending order of
// the other role, as the per-value walk of §1.4 does; charging the
// set's population before each AND counts SupportChecks exactly as that
// walk does, one check per arc up to and including a value's first
// unsupported one.
func (nw *Network) ConsistencyPass() int {
	sets := nw.sets()
	for gr, dom := range nw.domains {
		sets[gr].CopyFrom(dom)
	}
	for _, arc := range nw.arcs {
		_, ra := nw.sp.RoleAt(arc.A)
		_, rb := nw.sp.RoleAt(arc.B)
		rowSup, colSup := nw.scr.rowSup[ra], nw.scr.colSup[rb]
		arc.M.Support(nw.domains[arc.A], rowSup, colSup)
		nw.keepSupported(sets[arc.A], rowSup)
		nw.keepSupported(sets[arc.B], colSup)
	}
	eliminated := 0
	for gr, dom := range nw.domains {
		victims := sets[gr]
		victims.AndNot(dom, victims)
		eliminated += nw.remove(gr, victims)
	}
	return eliminated
}

// keepSupported charges one support check to every value in supported
// and keeps those that sup supports.
func (nw *Network) keepSupported(supported, sup *bitset.Set) {
	nw.Counters.SupportChecks += uint64(supported.Count())
	supported.And(supported, sup)
}

// Filter repeats consistency maintenance until a fixpoint or until
// maxIters passes have run (maxIters <= 0 means unbounded). It returns
// the number of passes that performed at least one elimination plus the
// final no-op pass, i.e. the total passes executed.
func (nw *Network) Filter(maxIters int) int {
	passes, _ := nw.FilterCtx(context.Background(), maxIters)
	return passes
}

// FilterCtx is Filter with a cancellation check before every
// consistency pass, so a deadline interrupts filtering between passes
// rather than being noticed only after the fixpoint. On cancellation it
// returns the passes completed so far and ctx.Err(); the network is
// left in the (valid, partially filtered) state the last completed pass
// produced.
func (nw *Network) FilterCtx(ctx context.Context, maxIters int) (int, error) {
	passes := 0
	for {
		if err := ctx.Err(); err != nil {
			return passes, err
		}
		if maxIters > 0 && passes >= maxIters {
			return passes, nil
		}
		passes++
		nw.Counters.FilterIterations++
		if nw.ConsistencyPass() == 0 {
			return passes, nil
		}
	}
}

// AllRolesAlive reports the paper's acceptance condition: every role of
// every word retains at least one role value.
func (nw *Network) AllRolesAlive() bool {
	for _, d := range nw.domains {
		if !d.Any() {
			return false
		}
	}
	return true
}

// Ambiguous reports whether any role retains more than one role value
// (§1.4: "some of the roles in an ambiguous sentence will contain more
// than one role value").
func (nw *Network) Ambiguous() bool {
	for _, d := range nw.domains {
		if d.Count() > 1 {
			return true
		}
	}
	return false
}

// DomainStrings renders the live role values of global role gr in the
// paper's figure notation.
func (nw *Network) DomainStrings(gr int) []string {
	_, r := nw.sp.RoleAt(gr)
	var out []string
	nw.domains[gr].ForEach(func(idx int) {
		out = append(out, nw.sp.RVString(r, idx))
	})
	return out
}

// Clone deep-copies the network (counters are not shared; the clone
// starts with fresh counters).
func (nw *Network) Clone() *Network {
	c := &Network{
		sp:       nw.sp,
		domains:  make([]*bitset.Set, len(nw.domains)),
		arcs:     make([]*Arc, len(nw.arcs)),
		arcAt:    nw.arcAt,
		Counters: &metrics.Counters{},
	}
	for i, d := range nw.domains {
		c.domains[i] = d.Clone()
	}
	for i, a := range nw.arcs {
		c.arcs[i] = &Arc{A: a.A, B: a.B, M: a.M.Clone()}
	}
	return c
}

// EqualState reports whether two networks (over the same space) have
// identical domains and identical matrices restricted to live pairs.
// Matrices are compared only on live×live entries because engines may
// legitimately differ on garbage bits under already-eliminated values.
func (nw *Network) EqualState(o *Network) bool {
	if len(nw.domains) != len(o.domains) {
		return false
	}
	for i := range nw.domains {
		if !nw.domains[i].Equal(o.domains[i]) {
			return false
		}
	}
	for i, a := range nw.arcs {
		b := o.arcs[i]
		if a.A != b.A || a.B != b.B {
			return false
		}
		equal := true
		nw.domains[a.A].ForEach(func(r int) {
			nw.domains[a.B].ForEach(func(c int) {
				if a.M.Get(r, c) != b.M.Get(r, c) {
					equal = false
				}
			})
		})
		if !equal {
			return false
		}
	}
	return true
}

// CheckLivePairs returns an error naming the first set matrix bit that
// does not lie on a live×live pair, or nil when there is none. Every
// network New builds and propagation updates keeps this shape, and the
// word-wise support and elimination passes read live rows only because
// of it.
func (nw *Network) CheckLivePairs() error {
	for _, arc := range nw.arcs {
		domA, domB := nw.domains[arc.A], nw.domains[arc.B]
		for i := 0; i < arc.M.Rows(); i++ {
			bad := -1
			arc.M.RowForEach(i, func(j int) {
				if bad < 0 && !(domA.Get(i) && domB.Get(j)) {
					bad = j
				}
			})
			if bad >= 0 {
				return fmt.Errorf("cn: arc (%d,%d) has bit (%d,%d) set off the live pairs", arc.A, arc.B, i, bad)
			}
		}
	}
	return nil
}

// Stats summarizes the live state for diagnostics.
func (nw *Network) Stats() string {
	live := 0
	for _, d := range nw.domains {
		live += d.Count()
	}
	ones := 0
	for _, a := range nw.arcs {
		ones += a.M.Count()
	}
	return fmt.Sprintf("roles=%d liveRVs=%d arcs=%d matrixOnes=%d",
		len(nw.domains), live, len(nw.arcs), ones)
}
