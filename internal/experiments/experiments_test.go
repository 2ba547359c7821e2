package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("got %d experiments, want 8", len(all))
	}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		got, ok := ByID(strings.ToLower(e.ID))
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID should reject unknown ids")
	}
	if len(IDs()) != 8 {
		t.Error("IDs length")
	}
}

func TestE8FilteringAlgorithms(t *testing.T) {
	out := E8FilteringAlgorithms()
	for _, want := range []string{"AC-1 (paper)", "AC-4", "bounded(3)", "English", "Chain"} {
		if !strings.Contains(out, want) {
			t.Errorf("E8 output missing %q", want)
		}
	}
	// AC-1 and AC-4 rows must all reach the fixpoint (no "false" in
	// their rows); the bounded rows on the chain grammar must not.
	lines := strings.Split(out, "\n")
	sawBoundedLoose := false
	for _, l := range lines {
		if strings.Contains(l, "AC-1") || strings.Contains(l, "AC-4") {
			if strings.Contains(l, "false") {
				t.Errorf("exact algorithm missed the fixpoint: %s", l)
			}
		}
		if strings.Contains(l, "bounded") && strings.Contains(l, "Chain") && strings.Contains(l, "false") {
			sawBoundedLoose = true
		}
	}
	if !sawBoundedLoose {
		t.Error("bounded filtering should be loose on the deep chain cascade")
	}
}

func TestE7MachineSizeInvariance(t *testing.T) {
	out := E7MachineSize()
	if strings.Contains(out, "false") {
		t.Errorf("machine size changed the parse result:\n%s", out)
	}
	for _, want := range []string{"1024", "16384", "65536", "layers"} {
		if !strings.Contains(out, want) {
			t.Errorf("E7 output missing %q", want)
		}
	}
}

func TestE1ContainsFigures(t *testing.T) {
	out := E1Walkthrough()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 9", "Figure 10", "Figure 11",
		"Figure 12", "Figure 13",
		"SUBJ-3", "ROOT-nil", "DET-2", "NP-1",
		"accepted=true ambiguous=false parses=1",
		// Figure 10's verdict: SUBJ-1 loses support.
		"UNSUPPORTED",
		// Figure 11's PE count and Figure 12's block numbering match
		// the paper's drawings.
		"324 PEs total",
		"PEs    108..   125",
		// Figure 13 / the paper's PE-9 walkthrough.
		"PE 9 (col group 0, row group 9)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

// update rewrites every golden file from this tree's output:
//
//	go test ./internal/experiments/ -run Golden -update
//
// A change that moves a paper number regenerates the goldens and says
// why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite the experiments' golden files")

// TestE1GoldenFile pins the entire walkthrough output byte-for-byte.
func TestE1GoldenFile(t *testing.T) {
	checkGolden(t, "E1", E1Walkthrough)
}

// TestGoldenFiles pins the reports of E2–E8 byte for byte, as
// TestE1GoldenFile pins E1: the measured growth exponents, the MasPar
// cycle, scan and router counts, the mesh ticks, the staircase, the
// filtering rounds and the ablations. E3's serial host time is the one
// cell read from the host clock; it is masked.
func TestGoldenFiles(t *testing.T) {
	for _, e := range All()[1:] {
		t.Run(e.ID, func(t *testing.T) { checkGolden(t, e.ID, e.Run) })
	}
}

// checkGolden compares run's report, as cmd/experiments prints it, with
// testdata/<id>_golden.txt, or rewrites the file under -update.
func checkGolden(t *testing.T, id string, run func() string) {
	t.Helper()
	path := filepath.Join("testdata", strings.ToLower(id)+"_golden.txt")
	got := maskHostTime(run() + "\n") // cmd prints with a trailing newline
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	// Find the first divergence for a useful message.
	g, w := got, string(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Errorf("%s output diverges from %s at byte %d:\n got: …%q…\nwant: …%q…", id, path, i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
}

// hostTimeHeader heads E3's column of serial parse times.
const hostTimeHeader = "serial host time"

// maskHostTime overwrites every cell of the column headed
// hostTimeHeader with asterisks, leaving all other bytes in place.
// The column's width is read from the rule under its header, and
// cells are padded by runes ("µs"), so the mask counts runes too.
func maskHostTime(out string) string {
	lines := strings.Split(out, "\n")
	for i := 0; i+1 < len(lines); i++ {
		col := strings.Index(lines[i], hostTimeHeader)
		if col < 0 {
			continue
		}
		width := len(hostTimeHeader)
		rule := lines[i+1]
		for col+width < len(rule) && rule[col+width] == '-' {
			width++
		}
		mask := []rune(strings.Repeat("*", width))
		for j := i + 2; j < len(lines) && lines[j] != ""; j++ {
			row := []rune(lines[j])
			if len(row) >= col+width {
				copy(row[col:col+width], mask)
				lines[j] = string(row)
			}
		}
	}
	return strings.Join(lines, "\n")
}

func TestE2ShapeHolds(t *testing.T) {
	out := E2Figure8()
	// The measured exponents appear as n^X.XX; spot-check the claims
	// the table must support.
	for _, want := range []string{
		"Sequential CFG (CKY)",
		"Sequential CDG",
		"CRCW P-RAM CDG",
		"2D mesh CFG",
		"MasPar MP-1 CDG",
		"flat (O(k))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "NOT FLAT") {
		t.Error("P-RAM steps were not constant in n")
	}
}

func TestE3Anchors(t *testing.T) {
	out := E3Timing()
	for _, want := range []string{
		"0.15 s", "0.45 s", "per constraint",
		"Paper anchors",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q", want)
		}
	}
}

func TestE4StaircaseConsistent(t *testing.T) {
	out := E4Staircase()
	if strings.Contains(out, "plan mismatch") {
		t.Errorf("E4 plan does not match execution:\n%s", out)
	}
	for _, want := range []string{"virtual PEs", "layers", "executed"} {
		if !strings.Contains(out, want) {
			t.Errorf("E4 output missing %q", want)
		}
	}
}

func TestE5BothRegimes(t *testing.T) {
	out := E5Filtering()
	if !strings.Contains(out, "English") || !strings.Contains(out, "Chain") {
		t.Errorf("E5 output incomplete:\n%s", out)
	}
}

func TestE6Ablations(t *testing.T) {
	out := E6Ablations()
	for _, want := range []string{"batched (paper)", "per-constraint", "ring", "blocked"} {
		if !strings.Contains(out, want) {
			t.Errorf("E6 output missing %q", want)
		}
	}
	if strings.Contains(out, "false") {
		t.Errorf("E6(a) variants disagreed on the final network:\n%s", out)
	}
}
