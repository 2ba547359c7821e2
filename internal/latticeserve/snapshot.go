package latticeserve

import (
	"repro/internal/cdg"
	"repro/internal/cn"
)

// snapshot is the reusable parse state of one sentence prefix: the
// constraint network with every unary and binary constraint applied
// but — deliberately — NO consistency-maintenance filtering.
//
// Filtering is not extension-monotone: a role value unsupported at
// prefix length m can regain support from word m+1 ("John gave" leaves
// the ditransitive reading unsupported; "John gave Mary a book"
// restores it), so a filtered network must never be reused as a prefix.
// Constraint verdicts, by contrast, are per-value (unary) and per-pair
// (binary) and — for extension-stable grammars (cdg.ExtensionStable) —
// independent of the words that follow. The propagated network is
// therefore exactly the state that survives extension: extending by
// one slot copies every old verdict bit and evaluates constraints only
// on the new word's values, and a final filtering pass over a clone
// reaches the same fixpoint the from-scratch parse does (matrix bits
// only ever go 1→0 and each verdict is order-independent — the same
// argument that makes one cn.ApplyBinaryAll sweep reach the fixpoint of
// serial's per-constraint sweeps, pinned by serial's
// TestFusedMatchesDefault).
//
// A snapshot is immutable once published: finishing a path clones the
// network before filtering, and extension only reads the parent.
type snapshot struct {
	words []string
	sent  *cdg.Sentence
	nw    *cn.Network
}

// buildBase constructs the snapshot of a one-word prefix from scratch:
// initial network, unary propagation, binary propagation. The work is
// recorded in nw.Counters (read once, at build time).
func buildBase(g *cdg.Grammar, words []string) (*snapshot, error) {
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		return nil, err
	}
	nw := cn.New(cdg.NewSpace(g, sent))
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	if bs := g.Binary(); len(bs) > 0 {
		nw.ApplyBinaryAll(bs)
	}
	return &snapshot{words: append([]string(nil), words...), sent: sent, nw: nw}, nil
}

// extendSnapshot builds the propagated network for prev.words + word,
// paying only for what the new word adds. Role-value indices are
// length-dependent (value ⟨lab, mod⟩ of a role sits at lab·(n+1)+mod),
// so old domain and matrix bits are copied under an index remap from
// stride m+1 to stride m+2; the values that did not exist at length m
// — modifiee m+1 on every old role, plus all values of the new word's
// roles — are initialized and run through the unary constraints, and
// binary constraints are evaluated only on pairs involving at least
// one new value. nw.Counters of the result records exactly this
// incremental work: O(n³) fresh constraint checks instead of the
// O(n⁴) a from-scratch propagation pays.
func extendSnapshot(g *cdg.Grammar, prev *snapshot, word string) (*snapshot, error) {
	words := append(append([]string(nil), prev.words...), word)
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		return nil, err
	}
	spOld := prev.nw.Space()
	m := spOld.N()
	sp := cdg.NewSpace(g, sent)
	nw := cn.NewShell(sp)
	ctr := nw.Counters
	unary := g.Unary()
	binary := g.Binary()
	ucks := make([]cdg.Checker, len(unary))
	for k, c := range unary {
		ucks[k] = c.Bind(sent)
	}
	bcks := make([]cdg.Checker, len(binary))
	for k, c := range binary {
		bcks[k] = c.Bind(sent)
	}

	unaryOK := func(pos int, r cdg.RoleID, idx int) bool {
		ref := sp.RVRef(pos, r, idx)
		for k := range ucks {
			ctr.ConstraintChecks++
			if !ucks[k].Check1(ref) {
				return false
			}
		}
		return true
	}

	// Domains: copy the old live set (verdicts are extension-stable),
	// then admit the new values that pass initial aliveness + unary.
	for gr := 0; gr < sp.NumRoles(); gr++ {
		pos, r := sp.RoleAt(gr)
		dom := nw.Domain(gr)
		if pos > m {
			for idx := 0; idx < sp.RVCount(r); idx++ {
				if sp.InitialAlive(pos, r, idx) && unaryOK(pos, r, idx) {
					dom.SetBit(idx)
				}
			}
			continue
		}
		oldDom := prev.nw.Domain(gr)
		for lab := 0; lab < len(g.RoleLabels(r)); lab++ {
			for mod := 0; mod <= m; mod++ {
				if oldDom.Get(spOld.RVIndex(r, lab, mod)) {
					dom.SetBit(sp.RVIndex(r, lab, mod))
				}
			}
			idx := sp.RVIndex(r, lab, m+1) // modifiee = the appended word
			if sp.InitialAlive(pos, r, idx) && unaryOK(pos, r, idx) {
				dom.SetBit(idx)
			}
		}
	}

	binOK := func(refA, refB cdg.RVRef) bool {
		for k := range bcks {
			ck := &bcks[k]
			ctr.ConstraintChecks++
			ok := ck.Check2(refA, refB)
			if ok {
				ctr.ConstraintChecks++
				ok = ck.Check2(refB, refA)
			}
			if !ok {
				return false
			}
		}
		return true
	}

	// Matrices: old×old pairs copy their verdict bit; any pair with a
	// new member is evaluated fresh. Global role indices below q·m are
	// identical in both spaces and arcs keep A < B, so the old arc is
	// addressed with the same (A, B) and the same orientation.
	for _, arc := range nw.Arcs() {
		posA, ra := sp.RoleAt(arc.A)
		posB, rb := sp.RoleAt(arc.B)
		bothOld := posA <= m && posB <= m
		var oldArc *cn.Arc
		if bothOld {
			oldArc, _ = prev.nw.ArcBetween(arc.A, arc.B)
		}
		domA, domB := nw.Domain(arc.A), nw.Domain(arc.B)
		domA.ForEach(func(i int) {
			labA, modA := sp.RVDecode(ra, i)
			refA := sp.RVRef(posA, ra, i)
			aOld := bothOld && modA <= m
			domB.ForEach(func(j int) {
				if aOld {
					if labB, modB := sp.RVDecode(rb, j); modB <= m {
						if oldArc.M.Get(spOld.RVIndex(ra, labA, modA), spOld.RVIndex(rb, labB, modB)) {
							arc.M.SetBit(i, j)
							ctr.MatrixWrites++
						}
						return
					}
				}
				if binOK(refA, sp.RVRef(posB, rb, j)) {
					arc.M.SetBit(i, j)
					ctr.MatrixWrites++
				}
			})
		})
	}
	return &snapshot{words: words, sent: sent, nw: nw}, nil
}
