// Package core implements PARSEC — the paper's contribution: parallel
// CDG parsing. It provides the MasPar MP-1 algorithm of section 2.2
// (PE layout, broadcast constraint propagation, scan-based consistency
// maintenance, processor virtualization) and a backend-neutral Parser
// API that can also run the same parse on the serial reference engine
// and the CRCW P-RAM engine for comparison.
package core

import (
	"slices"

	"repro/internal/cdg"
	"repro/internal/maspar"
)

// Layout is the PE allocation of section 2.2.2 (Figures 11 and 13).
//
// The side of the (conceptual) arc-element matrix is S = q·n·n
// role-value *groups*: one group per (word, role, modifiee), with the
// modifiee list of word w being nil plus every position except w — n
// entries. Labels are not spread across PEs: each PE owns the l×l
// label submatrix for its (column group, row group) pair, which is
// design decision #6 / Figure 13 (each physical PE simulates a constant
// number l² of conceptual processors).
//
// Virtual PE v = colGroup·S + rowGroup, so a column block (all arc
// elements supporting one column group) is S consecutive PEs — the
// prerequisite for the scanOr/scanAnd segments of Figure 12. Arc
// elements are stored twice (PE v and its transpose mirror), which is
// what lets every role value's support be computed entirely inside its
// own column block.
type Layout struct {
	n int // words
	q int // roles per word
	l int // max labels per role (padded slots above a role's count are dead)
	s int // S = q·n·n groups
	v int // S² virtual PEs

	// refs lists the evaluation view of every real role value, group-
	// major: group g's label slots 0..k−1 are refs[refOff[g]:refOff[g+1]]
	// (k is the group's role's label count; slots at or above it are
	// padding and have no entry). Every PE of column block g, and every
	// PE of row stripe g, evaluates exactly these values, so the hot
	// loops read them here instead of decoding their PE id.
	refs   []cdg.RVRef
	refOff []int32

	// allowed[role][cat][ls] is table T's slice for the ACU to
	// broadcast: label slot ls of role is legal for a word of category
	// cat.
	allowed [][][]bool

	// Packed (64 PEs/word) activity masks, precomputed once so the hot
	// loop issues SetMaskWords and packed scans without any per-parse
	// planning:
	//   - baseMaskW marks PEs that are not on a self-arc (Figure 11:
	//     "PEs disabled from the beginning of parsing" are the
	//     role-to-itself blocks);
	//   - arcSegHeadW marks the first PE of each arc segment inside a
	//     column block (rowGroup divisible by n);
	//   - blockFirstActiveW marks, per column block, its first
	//     non-self-arc PE: the scanAnd segment head and the copy-scan
	//     source;
	//   - scanAndMaskW is baseMask ∧ arcSegHead — the mask of Figure
	//     12's "PE disabled only during the scanAnd".
	// The router pattern that mirrors column liveness to the row side is
	// the transpose v = col·S+row ↦ row·S+col. The machine charges it as
	// one router permutation per label slot; the host applies its effect
	// by clearing the dead values' row lanes in sweepDead, and
	// hoist_test.go's reference round mirrors each slot lane by lane.
	baseMaskW         []uint64
	arcSegHeadW       []uint64
	blockFirstActiveW []uint64
	scanAndMaskW      []uint64
}

// NewLayout computes the allocation for one (grammar, sentence) space.
// Everything in a Layout depends only on the grammar and the sentence
// length, so layouts are shared across parses through layoutFor's
// cache; a Layout is immutable after construction.
func NewLayout(sp *cdg.Space) *Layout {
	return buildLayout(sp.Grammar(), sp.N(), sp.Q())
}

func buildLayout(g *cdg.Grammar, n, q int) *Layout {
	l := g.MaxLabelsPerRole()
	s := q * n * n
	ly := &Layout{n: n, q: q, l: l, s: s, v: s * s}
	ly.refOff = make([]int32, s+1)
	for grp := 0; grp < s; grp++ {
		pos, role, mod := ly.Group(grp)
		for _, lab := range g.RoleLabels(role) {
			ly.refs = append(ly.refs, cdg.RVRef{Pos: pos, Role: role, Lab: lab, Mod: mod})
		}
		ly.refOff[grp+1] = int32(len(ly.refs))
	}
	ly.allowed = make([][][]bool, g.NumRoles())
	for r := range ly.allowed {
		role := cdg.RoleID(r)
		ly.allowed[r] = make([][]bool, g.NumCats())
		for c := range ly.allowed[r] {
			row := make([]bool, l)
			for ls, lab := range g.RoleLabels(role) {
				row[ls] = slices.Contains(g.AllowedLabels(role, cdg.CatID(c)), lab)
			}
			ly.allowed[r][c] = row
		}
	}
	nw := maspar.WordsFor(ly.v)
	ly.baseMaskW = make([]uint64, nw)
	ly.arcSegHeadW = make([]uint64, nw)
	ly.blockFirstActiveW = make([]uint64, nw)
	ly.scanAndMaskW = make([]uint64, nw)
	for v := 0; v < ly.v; v++ {
		col, row := v/s, v%s
		bit := uint64(1) << (uint(v) & 63)
		if ly.roleInstanceOfGroup(col) != ly.roleInstanceOfGroup(row) {
			ly.baseMaskW[v>>6] |= bit
		}
		if row%n == 0 {
			ly.arcSegHeadW[v>>6] |= bit
		}
	}
	for col := 0; col < s; col++ {
		if v := ly.blockHead(col); v < (col+1)*s {
			ly.blockFirstActiveW[v>>6] |= uint64(1) << (uint(v) & 63)
		}
	}
	for w := 0; w < nw; w++ {
		ly.scanAndMaskW[w] = ly.baseMaskW[w] & ly.arcSegHeadW[w]
	}
	return ly
}

// S returns the group-side length q·n·n.
func (ly *Layout) S() int { return ly.s }

// V returns the virtual PE count S².
func (ly *Layout) V() int { return ly.v }

// L returns the per-PE label submatrix side l.
func (ly *Layout) L() int { return ly.l }

// roleInstanceOfGroup maps a group index to its (word, role) instance
// index in 0..q·n−1.
func (ly *Layout) roleInstanceOfGroup(g int) int { return g / ly.n }

// Group decodes a group index into (word position 1..n, role, modifiee).
func (ly *Layout) Group(g int) (pos int, role cdg.RoleID, mod int) {
	ms := g % ly.n
	inst := g / ly.n
	role = cdg.RoleID(inst % ly.q)
	pos = inst/ly.q + 1
	mod = ms
	if ms >= pos {
		mod = ms + 1
	}
	return pos, role, mod
}

// GroupOf encodes (word position, role, modifiee) as a group index.
// mod must not equal pos (a word never modifies itself; that slot does
// not exist in the layout).
func (ly *Layout) GroupOf(pos int, role cdg.RoleID, mod int) int {
	ms := mod
	if mod > pos {
		ms = mod - 1
	}
	return ((pos-1)*ly.q+int(role))*ly.n + ms
}

// RVRef returns the evaluation view of label slot ls of group g. ok is
// false for padding slots (ls beyond the role's label count).
func (ly *Layout) RVRef(g, ls int) (ref cdg.RVRef, ok bool) {
	i := int(ly.refOff[g]) + ls
	if i >= int(ly.refOff[g+1]) {
		return cdg.RVRef{}, false
	}
	return ly.refs[i], true
}

// ColGroup returns the column group of PE v.
func (ly *Layout) ColGroup(v int) int { return v / ly.s }

// RowGroup returns the row group of PE v.
func (ly *Layout) RowGroup(v int) int { return v % ly.s }

// blockHead returns the first active PE of column block col: row group
// 0, unless the block's own role instance sits first, in which case the
// next arc (row group n) leads. It lies outside the block only in the
// degenerate one-role, one-word layout, where the whole block is a
// self-arc.
func (ly *Layout) blockHead(col int) int {
	first := 0
	if ly.roleInstanceOfGroup(col) == ly.roleInstanceOfGroup(0) {
		first = ly.n
	}
	return col*ly.s + first
}

// enabled reports whether PE v is on in the base mask, i.e. not on a
// self-arc.
func (ly *Layout) enabled(v int) bool { return packedBit(ly.baseMaskW, v) }

func packedBit(words []uint64, v int) bool { return words[v>>6]>>(uint(v)&63)&1 == 1 }

// A group set is a packed bit set over the layout's S groups, stored
// periodically extended: bit i holds group i mod S for every bit of
// its groupSetWords words. The row groups of 64 consecutive lanes run
// through the groups cyclically, so the extension turns them into one
// unaligned 64-bit read (rowLanes); column groups are runs of S lanes
// (colLanes). Build one by setting groups 0..S−1 in a zeroed set, then
// calling extendGroupSet.

// groupSetWords returns the length of a group set: enough words that a
// 64-bit read at any offset below S stays inside it.
func (ly *Layout) groupSetWords() int { return maspar.WordsFor(ly.s) + 1 }

// extendGroupSet copies groups 0..S−1 of set periodically into its
// higher bits, which must be zero. Bit i copies bit i−S, so each step
// moves the next min(S, 64) bits in one funnel-shifted word: its source
// lies wholly below i and is already final.
func (ly *Layout) extendGroupSet(set []uint64) {
	total := len(set) * 64
	for i := ly.s; i < total; {
		k := min(ly.s, 64, total-i)
		j := i - ly.s
		x := set[j>>6] >> uint(j&63)
		if sh := uint(j & 63); sh != 0 && j>>6+1 < len(set) {
			x |= set[j>>6+1] << (64 - sh)
		}
		x &= ^uint64(0) >> uint(64-k)
		set[i>>6] |= x << uint(i&63)
		if sh := uint(i & 63); sh != 0 && i>>6+1 < len(set) {
			set[i>>6+1] |= x >> (64 - sh)
		}
		i += k
	}
}

// colLanes returns the lanes, of the 64 starting at segment lane a,
// whose column group is in set.
func (ly *Layout) colLanes(set []uint64, a int) uint64 {
	var m uint64
	for c, lo := a/ly.s, 0; lo < 64 && c < ly.s; c++ {
		hi := (c+1)*ly.s - a
		if hi > 64 {
			hi = 64
		}
		if set[c>>6]>>(uint(c)&63)&1 == 1 {
			m |= (^uint64(0) >> uint(64-hi)) &^ (uint64(1)<<uint(lo) - 1)
		}
		lo = hi
	}
	return m
}

// rowLanes returns the lanes, of the 64 starting at a segment lane a
// with a mod S == off, whose row group is in set.
func rowLanes(set []uint64, off int) uint64 {
	i, sh := off>>6, uint(off&63)
	x := set[i] >> sh
	if sh != 0 {
		x |= set[i+1] << (64 - sh)
	}
	return x
}
