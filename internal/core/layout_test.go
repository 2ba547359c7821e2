package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cdg"
	"repro/internal/grammars"
)

func demoSpace(t *testing.T, n int) *cdg.Space {
	t.Helper()
	g := grammars.PaperDemo()
	words := make([]string, 0, n)
	for len(words)+2 <= n {
		words = append(words, "the", "program")
	}
	if len(words) < n {
		words = append(words, "runs")
	}
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cdg.NewSpace(g, sent)
}

func demoLayout(t *testing.T, n int) *Layout {
	t.Helper()
	return NewLayout(demoSpace(t, n))
}

// TestFigure11PECounts pins the layout to the paper's Figure 11: 324
// PEs for three words, word bands of 108 PEs, and 3-PE disabled
// diagonal runs.
func TestFigure11PECounts(t *testing.T) {
	ly := demoLayout(t, 3)
	if ly.S() != 18 || ly.V() != 324 {
		t.Fatalf("S=%d V=%d, want 18/324", ly.S(), ly.V())
	}
	if ly.L() != 3 {
		t.Errorf("l = %d", ly.L())
	}
	// Figure 11: "processors 0, 1, and 2 are disabled. This is because
	// they represent an arc from a role to itself."
	for v := 0; v < 3; v++ {
		if ly.enabled(v) {
			t.Errorf("PE %d should be disabled (self arc)", v)
		}
	}
	// PE 3 begins the arc to the word's needs role: enabled.
	if !ly.enabled(3) {
		t.Error("PE 3 should be enabled")
	}
	// Total disabled PEs: S column blocks × n self-arc rows each.
	disabled := 0
	for v := 0; v < ly.V(); v++ {
		if !ly.enabled(v) {
			disabled++
		}
	}
	if disabled != ly.S()*3 {
		t.Errorf("disabled = %d, want %d", disabled, ly.S()*3)
	}
}

func TestGroupRoundTrip(t *testing.T) {
	ly := demoLayout(t, 5)
	seen := map[int]bool{}
	for g := 0; g < ly.S(); g++ {
		pos, role, mod := ly.Group(g)
		if mod == pos {
			t.Fatalf("group %d decodes to self-modification", g)
		}
		if mod < 0 || mod > 5 {
			t.Fatalf("group %d: mod %d out of range", g, mod)
		}
		back := ly.GroupOf(pos, role, mod)
		if back != g {
			t.Errorf("group %d -> (%d,%d,%d) -> %d", g, pos, role, mod, back)
		}
		key := pos*1000 + int(role)*100 + mod
		if seen[key] {
			t.Errorf("duplicate triple for group %d", g)
		}
		seen[key] = true
	}
}

// transposeOf is the mirror PE of v: the router pattern row·S+col that
// converts column liveness into row liveness.
func transposeOf(ly *Layout, v int) int { return ly.RowGroup(v)*ly.S() + ly.ColGroup(v) }

func TestTransposeInvolution(t *testing.T) {
	ly := demoLayout(t, 4)
	for v := 0; v < ly.V(); v++ {
		tr := transposeOf(ly, v)
		if transposeOf(ly, tr) != v {
			t.Fatalf("transpose not an involution at %d", v)
		}
		if ly.ColGroup(v) != ly.RowGroup(tr) || ly.RowGroup(v) != ly.ColGroup(tr) {
			t.Fatalf("transpose mismatch at %d", v)
		}
		// Mirror of a self-arc PE is a self-arc PE.
		if ly.enabled(v) != ly.enabled(tr) {
			t.Fatalf("mask asymmetry at %d", v)
		}
	}
}

func TestBlockFirstActiveInvariants(t *testing.T) {
	ly := demoLayout(t, 4)
	for c := 0; c < ly.S(); c++ {
		firstMarked := -1
		firstActive := -1
		for r := 0; r < ly.S(); r++ {
			v := c*ly.S() + r
			if packedBit(ly.blockFirstActiveW, v) {
				if firstMarked >= 0 {
					t.Fatalf("block %d has two first-active marks", c)
				}
				firstMarked = v
			}
			if firstActive < 0 && ly.enabled(v) {
				firstActive = v
			}
		}
		if firstMarked != firstActive {
			t.Fatalf("block %d: marked %d, actual first active %d", c, firstMarked, firstActive)
		}
		// The first active PE is always an arc-segment head.
		if !packedBit(ly.arcSegHeadW, firstMarked) {
			t.Fatalf("block %d first active is not an arc head", c)
		}
	}
}

func TestRVRefPadding(t *testing.T) {
	ly := demoLayout(t, 3)
	// Both demo roles have exactly 3 labels, so slot 2 is valid and
	// slot 3 would be padding (l == 3, so ls ∈ 0..2 only).
	if _, ok := ly.RVRef(0, ly.L()-1); !ok {
		t.Error("last label slot should be valid for the demo grammar")
	}
	// Simulate a grammar with uneven roles to exercise padding.
	g := cdg.NewBuilder().
		Labels("A", "B", "C").
		Categories("c").
		Role("big", "A", "B", "C").
		Role("small", "A").
		Word("w", "c").
		MustBuild()
	sent, _ := cdg.Resolve(g, []string{"w", "w"}, nil)
	ly2 := NewLayout(cdg.NewSpace(g, sent))
	if ly2.L() != 3 {
		t.Fatalf("l = %d", ly2.L())
	}
	// Find a group for role "small" and check slots 1,2 are padding.
	small, _ := g.RoleByName("small")
	gIdx := ly2.GroupOf(1, small, 0)
	if _, ok := ly2.RVRef(gIdx, 0); !ok {
		t.Error("slot 0 should be valid")
	}
	for ls := 1; ls < 3; ls++ {
		if _, ok := ly2.RVRef(gIdx, ls); ok {
			t.Errorf("slot %d should be padding for the 1-label role", ls)
		}
	}
}

// TestQuickGroupEncoding fuzzes GroupOf/Group for arbitrary shapes.
func TestQuickGroupEncoding(t *testing.T) {
	ly := demoLayout(t, 7)
	f := func(rawPos, rawRole, rawMod uint8) bool {
		pos := int(rawPos)%7 + 1
		role := cdg.RoleID(rawRole % 2)
		mod := int(rawMod) % 8
		if mod == pos {
			return true // skipped: slot does not exist
		}
		g := ly.GroupOf(pos, role, mod)
		if g < 0 || g >= ly.S() {
			return false
		}
		p2, r2, m2 := ly.Group(g)
		return p2 == pos && r2 == role && m2 == mod
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenderAllocationFigure11(t *testing.T) {
	sp := demoSpace(t, 3)
	ly := NewLayout(sp)
	out := ly.RenderAllocation(sp)
	for _, want := range []string{
		"324 PEs total",
		"3x3 label submatrix",
		"PEs      0..   107",
		"PEs    108..   215",
		"PEs    216..   323",
		"3 self-arc PEs disabled",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAllocation missing %q:\n%s", want, out)
		}
	}
}

func TestRenderPE(t *testing.T) {
	sp := demoSpace(t, 3)
	ly := NewLayout(sp)
	if out := ly.RenderPE(sp, 0); !strings.Contains(out, "disabled") {
		t.Errorf("PE 0 should render as disabled:\n%s", out)
	}
	out := ly.RenderPE(sp, 9)
	// Figure 11's example: "Consider processor number 9 … The column
	// role values … belong to the word the … the role … is governor,
	// and their modifiee value is nil. The row role values' word is
	// program and their role is needs."
	for _, want := range []string{"the/1.governor mod=nil", "program", "needs", "3x3"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderPE(9) missing %q:\n%s", want, out)
		}
	}
}

// extendGroupSetBits is the bit-at-a-time periodic extension that
// extendGroupSet replaced, kept as its reference.
func extendGroupSetBits(s int, set []uint64) {
	for i := s; i < len(set)*64; i++ {
		if j := i - s; set[j>>6]>>(uint(j)&63)&1 == 1 {
			set[i>>6] |= uint64(1) << (uint(i) & 63)
		}
	}
}

// TestExtendGroupSetMatchesBitLoop holds the word-wise extension to the
// bit loop for every group count S = 1…300, on random sets of
// groupSetWords() to groupSetWords()+2 words.
func TestExtendGroupSetMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for s := 1; s <= 300; s++ {
		ly := &Layout{s: s}
		for words := ly.groupSetWords(); words <= ly.groupSetWords()+2; words++ {
			for trial := 0; trial < 7; trial++ {
				got := make([]uint64, words)
				for g := 0; g < s; g++ {
					if rng.Intn(3) == 0 {
						got[g>>6] |= uint64(1) << (uint(g) & 63)
					}
				}
				want := append([]uint64(nil), got...)
				ly.extendGroupSet(got)
				extendGroupSetBits(s, want)
				if !slices.Equal(got, want) {
					t.Fatalf("S=%d words=%d: got %x, want %x", s, words, got, want)
				}
			}
		}
	}
}
