// Package experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the paper-vs-measured record):
//
//	E1 — Figures 1–7: the "The program runs" walkthrough
//	E2 — Figure 8: CFG vs CDG across architectures (measured growth)
//	E3 — §3 timing: MasPar model time vs the serial baseline
//	E4 — §3 virtualization staircase ("grows as n⁴" step function)
//	E5 — §2.1 filtering iterations: English vs the adversarial chain
//	E6 — ablations of the §2.2.1 design decisions
//
// Every experiment returns a plain-text report; cmd/experiments prints
// them and the root bench suite exercises the same code paths under
// testing.B.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() string
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figures 1-7: constraint-network walkthrough of \"The program runs\"", E1Walkthrough},
		{"E2", "Figure 8: CFG vs CDG parsing across architectures", E2Figure8},
		{"E3", "Section 3: timing on the MasPar MP-1 vs the serial baseline", E3Timing},
		{"E4", "Section 3: processor-virtualization staircase", E4Staircase},
		{"E5", "Sections 1.4/2.1: filtering iterations to fixpoint", E5Filtering},
		{"E6", "Section 2.2.1: design-decision ablations", E6Ablations},
		{"E7", "Beyond the paper: MP-1 family machine-size sweep", E7MachineSize},
		{"E8", "Beyond the paper: filtering algorithms (AC-1 vs AC-4 vs bounded)", E8FilteringAlgorithms},
	}
}

// ByID returns the experiment with the given (case-insensitive) id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

func header(id, title string) string {
	line := strings.Repeat("=", 72)
	return fmt.Sprintf("%s\n%s — %s\n%s\n", line, id, title, line)
}
