package core

import (
	"fmt"
	"strings"

	"repro/internal/cdg"
)

// RenderAllocation prints the PE allocation in the spirit of Figure 11:
// the column blocks with their PE ranges, each block's word/role/
// modifiee triple, the disabled self-arc segments, and the per-PE label
// submatrix size (Figure 13). For the paper's 3-word sentence this
// shows the 324-PE layout with PEs 0–107 supporting "the", 108–215
// "program", and 216–323 "runs".
func (ly *Layout) RenderAllocation(sp *cdg.Space) string {
	g := sp.Grammar()
	var b strings.Builder
	fmt.Fprintf(&b, "%d PEs total: S=%d column groups x S=%d row groups, %dx%d label submatrix per PE\n",
		ly.v, ly.s, ly.s, ly.l, ly.l)

	// Word-level ranges (Figure 11's top band).
	perWord := ly.q * ly.n * ly.s
	for pos := 1; pos <= ly.n; pos++ {
		lo := (pos - 1) * perWord
		fmt.Fprintf(&b, "PEs %6d..%6d support word %q (position %d)\n",
			lo, lo+perWord-1, sp.Sentence().Word(pos), pos)
	}

	// Column-block detail.
	b.WriteString("\ncolumn blocks (one per word/role/modifiee group):\n")
	for c := 0; c < ly.s; c++ {
		pos, role, mod := ly.Group(c)
		modStr := "nil"
		if mod != cdg.NilMod {
			modStr = fmt.Sprintf("%d", mod)
		}
		lo := c * ly.s
		disabled := 0
		for v := lo; v < lo+ly.s; v++ {
			if !ly.enabled(v) {
				disabled++
			}
		}
		fmt.Fprintf(&b, "  block %3d: PEs %6d..%6d  %s/%d.%s mod=%-3s  (%d self-arc PEs disabled)\n",
			c, lo, lo+ly.s-1,
			sp.Sentence().Word(pos), pos, g.RoleName(role), modStr, disabled)
	}
	return b.String()
}

// RenderScanSegments prints the Figure 12 structure for one column
// block: the scanOr segments (one per arc, n PEs each), the disabled
// self-arc rows, the boundary PEs where per-arc ORs land, and the block
// head that receives the scanAnd verdict and sources the copy-scan.
func (ly *Layout) RenderScanSegments(sp *cdg.Space, colGroup int) string {
	g := sp.Grammar()
	pos, role, mod := ly.Group(colGroup)
	modStr := "nil"
	if mod != cdg.NilMod {
		modStr = fmt.Sprintf("%d", mod)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "column block %d — role values of %s/%d.%s mod=%s (PEs %d..%d)\n",
		colGroup, sp.Sentence().Word(pos), pos, g.RoleName(role), modStr,
		colGroup*ly.s, (colGroup+1)*ly.s-1)
	for inst := 0; inst < ly.q*ly.n; inst++ {
		rowLo := inst * ly.n
		peLo := colGroup*ly.s + rowLo
		rPos := inst/ly.q + 1
		rRole := cdg.RoleID(inst % ly.q)
		label := fmt.Sprintf("arc to %s/%d.%s", sp.Sentence().Word(rPos), rPos, g.RoleName(rRole))
		if !ly.enabled(peLo) {
			fmt.Fprintf(&b, "  PEs %6d..%6d  %-28s DISABLED (arc from the role to itself)\n",
				peLo, peLo+ly.n-1, label)
			continue
		}
		marks := "scanOr segment; boundary PE " + fmt.Sprintf("%d", peLo)
		if packedBit(ly.blockFirstActiveW, peLo) {
			marks += "; block head (scanAnd result + copy-scan source)"
		}
		fmt.Fprintf(&b, "  PEs %6d..%6d  %-28s %s\n", peLo, peLo+ly.n-1, label, marks)
	}
	return b.String()
}

// RenderPE describes one virtual PE: which arc elements it owns, in the
// style of the Figure 13 call-out ("each PE processes a 3×3 element
// submatrix").
func (ly *Layout) RenderPE(sp *cdg.Space, v int) string {
	g := sp.Grammar()
	col, row := ly.ColGroup(v), ly.RowGroup(v)
	cp, cr, cm := ly.Group(col)
	rp, rr, rm := ly.Group(row)
	mod := func(m int) string {
		if m == cdg.NilMod {
			return "nil"
		}
		return fmt.Sprintf("%d", m)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PE %d (col group %d, row group %d)", v, col, row)
	if !ly.enabled(v) {
		b.WriteString(" [disabled: arc from a role to itself]\n")
		return b.String()
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  columns: %s/%d.%s mod=%s  labels %v\n",
		sp.Sentence().Word(cp), cp, g.RoleName(cr), mod(cm), labelNames(g, cr))
	fmt.Fprintf(&b, "  rows:    %s/%d.%s mod=%s  labels %v\n",
		sp.Sentence().Word(rp), rp, g.RoleName(rr), mod(rm), labelNames(g, rr))
	fmt.Fprintf(&b, "  owns the %dx%d arc-element submatrix for those role values\n", ly.l, ly.l)
	return b.String()
}

func labelNames(g *cdg.Grammar, r cdg.RoleID) []string {
	var out []string
	for _, id := range g.RoleLabels(r) {
		out = append(out, g.LabelName(id))
	}
	return out
}
