package serial

// The tests in this file replay the paper's running example "The program
// runs" and check the network state after each phase against Figures
// 1–7 of the paper.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/grammars"
)

// domains collects the live role-value strings for every role, keyed
// "word/pos.role".
func domains(nw *cn.Network) map[string][]string {
	sp := nw.Space()
	g := sp.Grammar()
	out := map[string][]string{}
	for pos := 1; pos <= sp.N(); pos++ {
		for r := 0; r < sp.Q(); r++ {
			gr := sp.GlobalRole(pos, cdg.RoleID(r))
			key := sp.Sentence().Word(pos) + "." + g.RoleName(cdg.RoleID(r))
			out[key] = nw.DomainStrings(gr)
		}
	}
	return out
}

func parseDemo(t *testing.T, opt Options) (*Result, map[string]map[string][]string) {
	t.Helper()
	g := grammars.PaperDemo()
	snaps := map[string]map[string][]string{}
	opt.Phase = func(label string, nw *cn.Network) {
		snaps[label] = domains(nw)
	}
	res, err := ParseWords(g, grammars.PaperSentence(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, snaps
}

func wantDomains(t *testing.T, got map[string][]string, want map[string][]string, figure string) {
	t.Helper()
	for key, w := range want {
		if !reflect.DeepEqual(got[key], w) {
			t.Errorf("%s: %s = %v, want %v", figure, key, got[key], w)
		}
	}
}

// TestFigure1InitialNetwork checks the exhaustive initial role values.
func TestFigure1InitialNetwork(t *testing.T) {
	_, snaps := parseDemo(t, DefaultOptions())
	got := snaps["initial"]
	// Figure 1: all labels × all modifiees except self. Our rendering
	// order is label-major in table order (SUBJ < ROOT < DET by
	// declaration), modifiee ascending with nil (mod 0) first.
	want := map[string][]string{
		"The.governor": {
			"SUBJ-nil", "SUBJ-2", "SUBJ-3",
			"ROOT-nil", "ROOT-2", "ROOT-3",
			"DET-nil", "DET-2", "DET-3",
		},
		"program.governor": {
			"SUBJ-nil", "SUBJ-1", "SUBJ-3",
			"ROOT-nil", "ROOT-1", "ROOT-3",
			"DET-nil", "DET-1", "DET-3",
		},
		"runs.needs": {
			"NP-nil", "NP-1", "NP-2",
			"S-nil", "S-1", "S-2",
			"BLANK-nil", "BLANK-1", "BLANK-2",
		},
	}
	wantDomains(t, got, want, "Figure 1")
}

// TestFigure2FirstUnary checks the state after only the first unary
// constraint (verbs have label ROOT and are ungoverned).
func TestFigure2FirstUnary(t *testing.T) {
	_, snaps := parseDemo(t, DefaultOptions())
	got := snaps["unary:verb-governor"]
	want := map[string][]string{
		// Only the governor role of the verb is affected.
		"runs.governor": {"ROOT-nil"},
		"The.governor": {
			"SUBJ-nil", "SUBJ-2", "SUBJ-3",
			"ROOT-nil", "ROOT-2", "ROOT-3",
			"DET-nil", "DET-2", "DET-3",
		},
		"runs.needs": {
			"NP-nil", "NP-1", "NP-2",
			"S-nil", "S-1", "S-2",
			"BLANK-nil", "BLANK-1", "BLANK-2",
		},
	}
	wantDomains(t, got, want, "Figure 2")
}

// TestFigure3AfterUnary checks the network after all unary constraints.
func TestFigure3AfterUnary(t *testing.T) {
	_, snaps := parseDemo(t, DefaultOptions())
	got := snaps["after-unary"]
	want := map[string][]string{
		"The.governor":     {"DET-2", "DET-3"},
		"The.needs":        {"BLANK-nil"},
		"program.governor": {"SUBJ-1", "SUBJ-3"},
		"program.needs":    {"NP-1", "NP-3"},
		"runs.governor":    {"ROOT-nil"},
		"runs.needs":       {"S-1", "S-2"},
	}
	wantDomains(t, got, want, "Figure 3")
}

// TestFigure5FirstBinary checks the state after the first binary
// constraint (a SUBJ is governed by a ROOT to its right) plus one
// consistency-maintenance pass: SUBJ-1 disappears.
func TestFigure5FirstBinary(t *testing.T) {
	_, snaps := parseDemo(t, DefaultOptions())
	got := snaps["consistency:subj-governed-by-root"]
	want := map[string][]string{
		"The.governor":     {"DET-2", "DET-3"},
		"The.needs":        {"BLANK-nil"},
		"program.governor": {"SUBJ-3"},
		"program.needs":    {"NP-1", "NP-3"},
		"runs.governor":    {"ROOT-nil"},
		"runs.needs":       {"S-1", "S-2"},
	}
	wantDomains(t, got, want, "Figure 5")
}

// TestFigure6FinalNetwork checks the fully propagated, filtered network.
func TestFigure6FinalNetwork(t *testing.T) {
	res, snaps := parseDemo(t, DefaultOptions())
	got := snaps["after-filtering"]
	want := map[string][]string{
		"The.governor":     {"DET-2"},
		"The.needs":        {"BLANK-nil"},
		"program.governor": {"SUBJ-3"},
		"program.needs":    {"NP-1"},
		"runs.governor":    {"ROOT-nil"},
		"runs.needs":       {"S-2"},
	}
	wantDomains(t, got, want, "Figure 6")
	if !res.Accepted() {
		t.Error("sentence should be accepted")
	}
	if res.Ambiguous() {
		t.Error("final network should be unambiguous")
	}
}

// TestFigure7PrecedenceGraph checks the single extracted parse.
func TestFigure7PrecedenceGraph(t *testing.T) {
	res, _ := parseDemo(t, DefaultOptions())
	parses := res.Parses(0)
	if len(parses) != 1 {
		t.Fatalf("got %d parses, want exactly 1", len(parses))
	}
	a := parses[0]
	g := grammars.PaperDemo()
	if !a.Satisfies(g) {
		t.Error("extracted parse violates a constraint")
	}
	s := a.String()
	for _, wantLine := range []string{
		"Word=The Position=1 governor=DET-2 needs=BLANK-nil",
		"Word=program Position=2 governor=SUBJ-3 needs=NP-1",
		"Word=runs Position=3 governor=ROOT-nil needs=S-2",
	} {
		if !strings.Contains(s, wantLine) {
			t.Errorf("parse rendering missing %q; got:\n%s", wantLine, s)
		}
	}
	edges := a.Edges()
	if len(edges) != 4 {
		t.Errorf("precedence graph should have 4 edges (DET-2, SUBJ-3, NP-1, S-2), got %d", len(edges))
	}
}

// TestNoFilteringStillUnambiguousHere verifies that for this tiny
// example the binary constraints plus per-constraint consistency already
// settle the network (filtering finds nothing more to do).
func TestNoFilteringStillUnambiguousHere(t *testing.T) {
	res, _ := parseDemo(t, Options{Filter: false})
	if res.Ambiguous() {
		t.Error("demo network should be unambiguous even without filtering")
	}
}

// TestAC4OptionMatchesDefault runs the full pipeline with both
// filtering algorithms: the default pass-based filtering, and no
// filtering followed by cn.FilterAC4 (the support-counted algorithm
// E8 measures). The networks must be identical.
func TestAC4OptionMatchesDefault(t *testing.T) {
	g := grammars.PaperDemo()
	words := []string{"the", "program", "runs", "the", "machine"}
	def, err := ParseWords(g, words, Options{Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	ac4, err := ParseWords(g, words, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ac4.Network.FilterAC4()
	if !def.Network.EqualState(ac4.Network) {
		t.Error("AC-4 filtering changed the result")
	}
}

// TestRejectsUngrammatical checks a word order the grammar forbids.
func TestRejectsUngrammatical(t *testing.T) {
	g := grammars.PaperDemo()
	res, err := ParseWords(g, []string{"runs", "program", "the"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Error("\"runs program the\" should not be accepted")
	}
	if res.Network.HasParse() {
		t.Error("no precedence graph should exist")
	}
}

// TestUnknownWord checks lexicon failure reporting.
func TestUnknownWord(t *testing.T) {
	g := grammars.PaperDemo()
	_, err := ParseWords(g, []string{"the", "xyzzy", "runs"}, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "xyzzy") {
		t.Fatalf("want unknown-word error mentioning xyzzy, got %v", err)
	}
}
