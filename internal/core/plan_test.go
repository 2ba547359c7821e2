package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/maspar"
)

// TestPlanMatchesExecution pins the analytic model to the real
// instruction schedule: for several sentence lengths, PlanMasPar with
// the measured round count must reproduce the executed cycle count
// exactly. If masparsec.go's schedule changes, this fails and plan.go
// must be updated with it. Beside the demo grammar's solo parses it
// covers English: every member of one gang, whose members settle at
// different rounds and one of which repeats another, and a 17-word
// sentence that spans 46 virtual layers.
func TestPlanMatchesExecution(t *testing.T) {
	type parsed struct {
		g     *cdg.Grammar
		words []string
		res   *Result
	}
	var runs []parsed
	demo := grammars.PaperDemo()
	for _, words := range [][]string{
		{"program", "runs"},
		{"the", "program", "runs"},
		{"the", "program", "runs", "the", "machine"},
		{"the", "program", "the", "compiler", "the", "machine", "runs"},
	} {
		p := NewParser(demo, WithBackend(MasPar))
		res, err := p.Parse(words)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, parsed{demo, words, res})
	}
	english := grammars.English()
	gang := []string{"the dog saw the man", "a cat chased the ball", "the dog saw the man", "walked the dog rex quickly"}
	results, err := NewParser(english).ParseGangContext(context.Background(), resolveAll(t, english, gang))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if want := []uint64{3, 3, 3, 2}[i]; res.Counters.FilterIterations != want {
			t.Fatalf("gang member %d (%q) settled after %d rounds, want %d", i, gang[i], res.Counters.FilterIterations, want)
		}
		runs = append(runs, parsed{english, strings.Fields(gang[i]), res})
	}
	long := strings.Fields("the big old dog saw the old man with the telescope in the park with the ball")
	res, err := NewParser(english).Parse(long)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.VirtualLayers != 46 {
		t.Fatalf("the %d-word sentence spans %d virtual layers, want 46", len(long), res.Counters.VirtualLayers)
	}
	runs = append(runs, parsed{english, long, res})
	for _, r := range runs {
		g, words, res := r.g, r.words, r.res
		plan := PlanMasPar(g, len(words), maspar.PhysicalPEs, maspar.DefaultCosts(), int(res.Counters.FilterIterations))
		if plan.Cycles != res.Counters.Cycles {
			t.Errorf("n=%d: plan cycles %d != executed cycles %d (rounds=%d)",
				len(words), plan.Cycles, res.Counters.Cycles, res.Counters.FilterIterations)
		}
		if uint64(plan.V) != res.Counters.Processors {
			t.Errorf("n=%d: plan V %d != executed %d", len(words), plan.V, res.Counters.Processors)
		}
		if uint64(plan.Layers) != res.Counters.VirtualLayers {
			t.Errorf("n=%d: plan layers %d != executed %d", len(words), plan.Layers, res.Counters.VirtualLayers)
		}
		if plan.Scans != res.Counters.ScanOps {
			t.Errorf("n=%d: plan scans %d != executed %d", len(words), plan.Scans, res.Counters.ScanOps)
		}
		if plan.Routers != res.Counters.RouterOps {
			t.Errorf("n=%d: plan routers %d != executed %d", len(words), plan.Routers, res.Counters.RouterOps)
		}
	}
}

// TestPlanStaircase checks the virtualization step function at the
// paper's anchor points.
func TestPlanStaircase(t *testing.T) {
	g := grammars.PaperDemo()
	costs := maspar.DefaultCosts()
	for _, tc := range []struct {
		n      int
		layers int
	}{
		{3, 1},  // 324 PEs
		{7, 1},  // 9604 PEs
		{9, 2},  // 26244 PEs
		{10, 3}, // 40000 PEs — the paper's 0.45 s point
		{12, 6},
		{16, 16},
	} {
		p := PlanMasPar(g, tc.n, maspar.PhysicalPEs, costs, 3)
		if p.Layers != tc.layers {
			t.Errorf("n=%d: layers = %d, want %d (V=%d)", tc.n, p.Layers, tc.layers, p.V)
		}
	}
}

// TestPlanModelTimeNearPaper checks the E3 calibration: the 3-word
// parse should land in the ~0.1–0.2 s band the paper reports (0.15 s),
// and the 10-word parse at 3× that (paper: 0.45 s).
func TestPlanModelTimeNearPaper(t *testing.T) {
	g := grammars.PaperDemo()
	costs := maspar.DefaultCosts()
	p3 := PlanMasPar(g, 3, maspar.PhysicalPEs, costs, 3)
	sec3 := p3.ModelTime.Seconds()
	if sec3 < 0.05 || sec3 > 0.3 {
		t.Errorf("3-word model time = %.3fs, want within [0.05, 0.3] (paper: 0.15s)", sec3)
	}
	p10 := PlanMasPar(g, 10, maspar.PhysicalPEs, costs, 3)
	ratio := p10.ModelTime.Seconds() / sec3
	if ratio != 3.0 {
		t.Errorf("10-word/3-word time ratio = %.2f, want exactly 3 (the layer staircase)", ratio)
	}
}

// TestPlanPerConstraintUnderTenMs checks the other §3 anchor: "less
// than 10 milliseconds to propagate a constraint in a network of one to
// seven words". Amortized per-constraint time = total / k.
func TestPlanPerConstraintUnderTenMs(t *testing.T) {
	g := grammars.PaperDemo()
	costs := maspar.DefaultCosts()
	for n := 1; n <= 7; n++ {
		if g.NumRoles()*n < 2 {
			continue
		}
		p := PlanMasPar(g, n, maspar.PhysicalPEs, costs, 3)
		perConstraint := p.ModelTime.Seconds() / float64(g.NumConstraints())
		if perConstraint >= 0.020 {
			t.Errorf("n=%d: %.4fs per constraint, want < 20ms (paper: <10ms)", n, perConstraint)
		}
	}
}

// TestPlanChecksDominateCycles documents that constraint interpretation
// is the dominant cost, as on the real 4-bit PEs.
func TestPlanChecksDominateCycles(t *testing.T) {
	g := grammars.PaperDemo()
	costs := maspar.DefaultCosts()
	p := PlanMasPar(g, 5, maspar.PhysicalPEs, costs, 3)
	checkCycles := costs.ConstraintCheck * p.ChecksPerPE * uint64(p.Layers)
	if float64(checkCycles) < 0.5*float64(p.Cycles) {
		t.Errorf("constraint checks are %.0f%% of cycles, expected majority",
			100*float64(checkCycles)/float64(p.Cycles))
	}
}

// TestPlanMemoryBudget: the paper's sentences trivially fit the 16 KB
// per-PE store; memory only binds when virtualization piles thousands
// of layers onto one PE.
func TestPlanMemoryBudget(t *testing.T) {
	g := grammars.PaperDemo()
	costs := maspar.DefaultCosts()
	for _, n := range []int{3, 10, 40} {
		p := PlanMasPar(g, n, maspar.PhysicalPEs, costs, 3)
		if !p.FitsMemory() {
			t.Errorf("n=%d should fit PE memory (%d bytes)", n, p.MemPerPE)
		}
		if p.MemPerPE <= 0 {
			t.Errorf("n=%d: MemPerPE = %d", n, p.MemPerPE)
		}
	}
	// A pathological machine: 16 PEs parsing 40 words piles on so many
	// layers the local store overflows.
	p := PlanMasPar(g, 40, 16, costs, 3)
	if p.FitsMemory() {
		t.Errorf("640k layers on 16 PEs should exceed 16KB/PE (got %d bytes)", p.MemPerPE)
	}
}

func TestPlanShapeFields(t *testing.T) {
	g := grammars.PaperDemo()
	p := PlanMasPar(g, 4, 1024, maspar.DefaultCosts(), 2)
	if p.Q != 2 || p.L != 3 {
		t.Errorf("q=%d l=%d, want 2 and 3", p.Q, p.L)
	}
	if p.S != 2*4*4 || p.V != p.S*p.S {
		t.Errorf("S=%d V=%d", p.S, p.V)
	}
	if p.Layers != (p.V+1023)/1024 {
		t.Errorf("layers=%d", p.Layers)
	}
	var _ = cdg.NilMod // keep cdg import meaningful if shape fields change
}
