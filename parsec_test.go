package parsec_test

// API-level tests of the public facade: everything a downstream user
// touches in the README quick start must work exactly as documented.

import (
	"context"
	"errors"
	"strings"
	"testing"

	parsec "repro"
)

func TestQuickStartFlow(t *testing.T) {
	p := parsec.NewParser(parsec.PaperDemo(), parsec.WithBackend(parsec.MasPar))
	res, err := p.Parse([]string{"the", "program", "runs"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || res.Ambiguous() {
		t.Fatal("README quick-start behavior broken")
	}
	if res.Counters.Processors != 324 {
		t.Errorf("Processors = %d, want 324 (Figure 11)", res.Counters.Processors)
	}
	if res.ModelTime <= 0 {
		t.Error("ModelTime missing")
	}
	parses := res.Parses(0)
	if len(parses) != 1 {
		t.Fatalf("parses = %d", len(parses))
	}
	out := parsec.RenderPrecedenceGraph(parses[0])
	if !strings.Contains(out, "SUBJ") {
		t.Errorf("render: %s", out)
	}
}

func TestAllBackendsViaFacade(t *testing.T) {
	for _, b := range []parsec.Backend{parsec.Serial, parsec.PRAM, parsec.MasPar, parsec.Mesh} {
		p := parsec.NewParser(parsec.PaperDemo(), parsec.WithBackend(b))
		res, err := p.Parse([]string{"the", "program", "runs"})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if !res.Accepted() {
			t.Errorf("%v: rejected", b)
		}
		if p.Backend() != b {
			t.Errorf("Backend() = %v", p.Backend())
		}
	}
}

func TestFacadeGrammars(t *testing.T) {
	for name, g := range map[string]*parsec.Grammar{
		"demo":    parsec.PaperDemo(),
		"english": parsec.English(),
		"ww":      parsec.CopyLanguage(),
		"dyck":    parsec.Dyck(),
		"anbn":    parsec.AnBn(),
	} {
		if g == nil || g.NumRoles() < 2 {
			t.Errorf("%s: bad grammar", name)
		}
	}
}

func TestParseGrammarFacade(t *testing.T) {
	g, err := parsec.ParseGrammar(`
(grammar
  (labels A IDLE)
  (categories c)
  (role r A)
  (role aux IDLE)
  (word w c)
  (constraint (if (eq (role x) r) (and (eq (lab x) A) (eq (mod x) nil))))
  (constraint (if (eq (role x) aux) (and (eq (lab x) IDLE) (eq (mod x) nil)))))`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parsec.NewParser(g, parsec.WithBackend(parsec.Serial)).Parse([]string{"w", "w"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Error("file grammar rejected trivial sentence")
	}
}

func TestGrammarBuilderFacade(t *testing.T) {
	g, err := parsec.NewGrammarBuilder().
		Labels("X", "IDLE").
		Categories("c").
		Role("main", "X").
		Role("aux", "IDLE").
		Word("hello", "c").
		Constraint("main-x", "(if (eq (role x) main) (and (eq (lab x) X) (eq (mod x) nil)))").
		Constraint("aux-idle", "(if (eq (role x) aux) (and (eq (lab x) IDLE) (eq (mod x) nil)))").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := parsec.NewParser(g, parsec.WithBackend(parsec.Serial)).Parse([]string{"hello"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Error("builder grammar rejected")
	}
}

func TestOptionsViaFacade(t *testing.T) {
	p := parsec.NewParser(parsec.PaperDemo(),
		parsec.WithBackend(parsec.MasPar),
		parsec.WithPEs(256),
		parsec.WithFilter(true),
		parsec.WithMaxFilterIters(2),
	)
	res, err := p.Parse([]string{"the", "program", "runs"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.VirtualLayers != (324+255)/256 {
		t.Errorf("layers = %d", res.Counters.VirtualLayers)
	}
	if res.Counters.FilterIterations > 2 {
		t.Errorf("filter bound ignored: %d", res.Counters.FilterIterations)
	}
}

// TestFacadeParseContext pins the documented context-aware entry point
// on the public facade.
func TestFacadeParseContext(t *testing.T) {
	p := parsec.NewParser(parsec.PaperDemo())
	res, err := p.ParseContext(context.Background(), []string{"the", "program", "runs"})
	if err != nil || !res.Accepted() {
		t.Fatalf("ParseContext: res=%v err=%v", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ParseContext(ctx, []string{"the", "program", "runs"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ParseContext: err=%v, want context.Canceled", err)
	}
}
