package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/grammars"
)

func parseOn(t *testing.T, b Backend, words []string, opts ...Option) *Result {
	t.Helper()
	p := NewParser(grammars.PaperDemo(), append([]Option{WithBackend(b)}, opts...)...)
	res, err := p.Parse(words)
	if err != nil {
		t.Fatalf("%v on %v: %v", words, b, err)
	}
	return res
}

func TestMasParDemoSentence(t *testing.T) {
	res := parseOn(t, MasPar, grammars.PaperSentence())
	if !res.Accepted() {
		t.Fatal("demo sentence should be accepted")
	}
	if res.Ambiguous() {
		t.Error("demo network should be unambiguous")
	}
	parses := res.Parses(0)
	if len(parses) != 1 {
		t.Fatalf("got %d parses, want 1", len(parses))
	}
	if !parses[0].Satisfies(grammars.PaperDemo()) {
		t.Error("extracted parse violates constraints")
	}
	if res.Counters.VirtualLayers != 1 {
		t.Errorf("3-word parse needs 1 virtualization layer, got %d", res.Counters.VirtualLayers)
	}
	// Figure 11: 324 PEs for the 3-word sentence.
	if res.Counters.Processors != 324 {
		t.Errorf("PE count = %d, want 324 (Figure 11)", res.Counters.Processors)
	}
	if res.ModelTime <= 0 {
		t.Error("MasPar backend should report a model time")
	}
}

// TestDifferentialAllBackends is the central correctness check: all
// three machine models must settle on bit-identical networks for a
// spread of inputs.
func TestDifferentialAllBackends(t *testing.T) {
	sentences := [][]string{
		{"the", "program", "runs"},
		{"a", "compiler", "halts"},
		{"program", "runs"},
		{"the", "runs"},
		{"runs", "program", "the"},
		{"the", "program", "the", "machine", "runs"},
		{"the", "program", "runs", "the", "machine"},
		{"this", "parser", "works"},
		{"the", "program", "the", "compiler", "the", "machine", "runs"},
	}
	for _, words := range sentences {
		ref := parseOn(t, Serial, words)
		for _, b := range []Backend{PRAM, MasPar, Mesh} {
			got := parseOn(t, b, words)
			if !ref.Network.EqualState(got.Network) {
				t.Errorf("%v: %v network differs from serial\nserial:\n%s\n%v:\n%s",
					words, b, ref.Network.Render(), b, got.Network.Render())
			}
		}
	}
}

// TestDifferentialEnglishThreeRoles runs the engines over the English
// grammar, which has three roles (governor, needs, comp) and nine
// categories — a shape the demo grammar never exercises.
func TestDifferentialEnglishThreeRoles(t *testing.T) {
	g := grammars.English()
	for _, words := range [][]string{
		{"the", "dog", "walked"},
		{"rex", "caught", "the", "ball"},
		{"rex", "caught"},
		{"the", "dog", "saw", "the", "man", "with", "the", "telescope"},
	} {
		ref, err := NewParser(g, WithBackend(Serial)).Parse(words)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Backend{PRAM, MasPar, Mesh} {
			got, err := NewParser(g, WithBackend(b)).Parse(words)
			if err != nil {
				t.Fatalf("%v on %v: %v", words, b, err)
			}
			if !ref.Network.EqualState(got.Network) {
				t.Errorf("%v: %v differs from serial on the 3-role grammar", words, b)
			}
		}
	}
}

// TestConsistencyPerConstraintAblationAgreesAtFixpoint verifies that
// running consistency after every constraint (the serial ordering) and
// running it only at the end (the O(k+log n) MasPar ordering) reach the
// same fixpoint.
func TestConsistencyPerConstraintAblationAgreesAtFixpoint(t *testing.T) {
	words := []string{"the", "program", "runs", "the", "machine"}
	batched := parseOn(t, MasPar, words)
	perConstraint := parseOn(t, MasPar, words, WithConsistencyPerConstraint(true))
	if !batched.Network.EqualState(perConstraint.Network) {
		t.Error("ablation variants disagree at fixpoint")
	}
}

// TestMasParCyclesFlatUntilVirtualization: with the PE budget fixed at
// 16K, the cycle count is essentially flat in n while V ≤ P (the O(k +
// log n) claim: log P is constant on a fixed machine) apart from
// extra filtering rounds, then steps up with the virtualization layers.
func TestMasParCyclesFlatUntilVirtualization(t *testing.T) {
	cycles := map[int]uint64{}
	layers := map[int]uint64{}
	rounds := map[int]uint64{}
	for _, words := range [][]string{
		{"the", "program", "runs"},
		{"the", "program", "runs", "the", "machine"},
		{"the", "program", "the", "compiler", "the", "machine", "runs"},
	} {
		res := parseOn(t, MasPar, words, WithMaxFilterIters(3))
		cycles[len(words)] = res.Counters.Cycles
		layers[len(words)] = res.Counters.VirtualLayers
		rounds[len(words)] = res.Counters.FilterIterations
	}
	if layers[3] != 1 || layers[5] != 1 || layers[7] != 1 {
		t.Fatalf("sentences up to 7 words fit in 16K PEs: layers=%v", layers)
	}
	// Same layer count and bounded rounds => cycle counts must match
	// whenever the executed round counts match; at minimum they must
	// be within the ratio of executed rounds.
	if rounds[3] == rounds[7] && cycles[3] != cycles[7] {
		t.Errorf("cycles differ at equal layer/round counts: %v", cycles)
	}
	ratio := float64(cycles[7]) / float64(cycles[3])
	if ratio > 2.0 {
		t.Errorf("cycles grew %vx from n=3 to n=7 despite constant layers", ratio)
	}
}

// TestVirtualizationStaircase reproduces the §3 step function: a
// 10-word sentence needs ⌈(2·10·10)²/16384⌉ = 3 layers.
func TestVirtualizationStaircase(t *testing.T) {
	words := []string{"the", "program", "runs", "the", "machine", "halts",
		"a", "compiler", "works", "this"}
	if len(words) != 10 {
		t.Fatal("want a 10-word sentence")
	}
	res := parseOn(t, MasPar, words)
	if res.Counters.Processors != 40000 {
		t.Errorf("10-word sentence needs (2·10·10)² = 40000 virtual PEs, got %d", res.Counters.Processors)
	}
	if res.Counters.VirtualLayers != 3 {
		t.Errorf("10 words on 16K PEs = 3 layers (paper: 0.45s = 3·0.15s), got %d", res.Counters.VirtualLayers)
	}
}

func TestSmallPhysicalMachineStillCorrect(t *testing.T) {
	words := grammars.PaperSentence()
	ref := parseOn(t, Serial, words)
	// 64 physical PEs => heavy virtualization; result must not change.
	got := parseOn(t, MasPar, words, WithPEs(64))
	if !ref.Network.EqualState(got.Network) {
		t.Error("virtualized-by-necessity result differs from serial")
	}
	if got.Counters.VirtualLayers != (324+63)/64 {
		t.Errorf("layers = %d, want %d", got.Counters.VirtualLayers, (324+63)/64)
	}
}

func TestBackendStrings(t *testing.T) {
	if Serial.String() != "serial" || PRAM.String() != "pram" ||
		MasPar.String() != "maspar" || Mesh.String() != "mesh" {
		t.Error("backend names wrong")
	}
	if Backend(99).String() != "unknown" {
		t.Error("unknown backend name")
	}
	for _, b := range Backends() {
		if got, err := ParseBackend(b.String()); err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	if _, err := ParseBackend("unknown"); err == nil || !strings.Contains(err.Error(), "serial|pram|maspar|mesh") {
		t.Errorf("ParseBackend(unknown): err=%v, want the backend list", err)
	}
}

func TestUnknownWordsRejected(t *testing.T) {
	p := NewParser(grammars.PaperDemo())
	if _, err := p.Parse([]string{"the", "frobnicator", "runs"}); err == nil {
		t.Error("expected lexicon error")
	}
	if _, err := p.Parse(nil); err == nil {
		t.Error("expected empty-sentence error")
	}
}

func TestStatsRendering(t *testing.T) {
	res := parseOn(t, MasPar, grammars.PaperSentence())
	s := res.Stats()
	if s == "" {
		t.Error("empty stats")
	}
}

// TestParseContextCancellation pins the context plumbing: an expired
// deadline aborts every backend's parse with the context error instead
// of running the algorithm to completion.
func TestParseContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range []Backend{Serial, PRAM, MasPar, Mesh} {
		p := NewParser(grammars.PaperDemo(), WithBackend(b))
		if _, err := p.ParseContext(ctx, grammars.PaperSentence()); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err=%v, want context.Canceled", b, err)
		}
	}
}

// TestParseContextDeadlineMidParse cancels after the parse has started:
// the serial and MasPar engines must notice between constraints and
// abort rather than finish. The deadline is already in the past when
// the parse begins — context sets the error synchronously for expired
// deadlines, so the test never races a timer goroutine against the
// (increasingly fast) parse; the engines' in-algorithm polls are what
// observe it.
func TestParseContextDeadlineMidParse(t *testing.T) {
	for _, b := range []Backend{Serial, MasPar} {
		p := NewParser(grammars.Chain(), WithBackend(b))
		words := grammars.ChainSentence(24)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
		_, err := p.ParseContext(ctx, words)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: err=%v, want context.DeadlineExceeded", b, err)
		}
	}
	// And with no deadline pressure the same parse completes.
	p := NewParser(grammars.Chain(), WithBackend(Serial))
	if _, err := p.ParseContext(context.Background(), grammars.ChainSentence(24)); err != nil {
		t.Errorf("uncancelled chain parse failed: %v", err)
	}
}
