package workload

import (
	"math/rand"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/serial"
)

func TestDemoSentenceLengths(t *testing.T) {
	g := grammars.PaperDemo()
	for n := 1; n <= 12; n++ {
		words := DemoSentence(n)
		if len(words) != n {
			t.Fatalf("DemoSentence(%d) has %d words", n, len(words))
		}
		if _, err := cdg.Resolve(g, words, nil); err != nil {
			t.Errorf("DemoSentence(%d) = %v not in demo lexicon: %v", n, words, err)
		}
	}
	if DemoSentence(3)[0] != "the" || DemoSentence(3)[2] != "runs" {
		t.Errorf("DemoSentence(3) = %v", DemoSentence(3))
	}
}

func TestEnglishSentenceGrammatical(t *testing.T) {
	g := grammars.English()
	for n := 3; n <= 14; n++ {
		words := EnglishSentence(n)
		if len(words) != n {
			t.Fatalf("EnglishSentence(%d) has %d words: %v", n, len(words), words)
		}
		res, err := serial.ParseWords(g, words, serial.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted() {
			t.Errorf("EnglishSentence(%d) = %v rejected", n, words)
		}
		if !res.Network.HasParse() {
			t.Errorf("EnglishSentence(%d) = %v has no parse", n, words)
		}
	}
}

func TestAmbiguousEnglishGrowsReadings(t *testing.T) {
	g := grammars.English()
	counts := make([]int, 0, 2)
	for pps := 1; pps <= 2; pps++ {
		words := AmbiguousEnglish(pps)
		res, err := serial.ParseWords(g, words, serial.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(res.Network.ExtractParses(0)))
	}
	if counts[0] < 2 {
		t.Errorf("1 PP should give ≥ 2 readings, got %d", counts[0])
	}
	if counts[1] <= counts[0] {
		t.Errorf("2 PPs should give more readings than 1 (%d vs %d)", counts[1], counts[0])
	}
}

func TestCopyString(t *testing.T) {
	g := grammars.CopyLanguage()
	words := CopyString(3, 0b101)
	if len(words) != 6 {
		t.Fatalf("len = %d", len(words))
	}
	for i := 0; i < 3; i++ {
		if words[i] != words[i+3] {
			t.Errorf("not a copy at %d", i)
		}
	}
	res, err := serial.ParseWords(g, words, serial.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Network.HasParse() {
		t.Error("copy string rejected by copy grammar")
	}
}

func TestBalancedParens(t *testing.T) {
	g := grammars.Dyck()
	res, err := serial.ParseWords(g, BalancedParens(3), serial.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Network.HasParse() {
		t.Error("((())) rejected")
	}
}

// TestSentenceForEveryGrammar: each grammar the load tools name gets
// sentences over its own lexicon, demo and english within maxLen, and
// an unknown name gets a demo sentence.
func TestSentenceForEveryGrammar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"demo", "english", "ww", "dyck", "nope"} {
		lexicon := name
		if name == "nope" {
			lexicon = "demo"
		}
		g, err := grammars.ByName(lexicon)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			words := SentenceFor(name, rng, 7)
			if len(words) == 0 || (lexicon == "demo" || lexicon == "english") && len(words) > 7 {
				t.Fatalf("SentenceFor(%s, maxLen 7) = %v", name, words)
			}
			if _, err := cdg.Resolve(g, words, nil); err != nil {
				t.Fatalf("SentenceFor(%s) = %v outside the %s lexicon: %v", name, words, lexicon, err)
			}
		}
	}
}

func TestPanicsOnBadLengths(t *testing.T) {
	for _, f := range []func(){
		func() { DemoSentence(0) },
		func() { EnglishSentence(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEnglishLatticeShape(t *testing.T) {
	g := grammars.English()
	for n := 3; n <= 10; n++ {
		slots := EnglishLattice(n, 3, uint64(n))
		if len(slots) != n {
			t.Fatalf("EnglishLattice(%d, 3) has %d slots", n, len(slots))
		}
		base := EnglishSentence(n)
		for i, slot := range slots {
			if len(slot) < 1 || len(slot) > 3 {
				t.Fatalf("slot %d has %d alternatives: %v", i, len(slot), slot)
			}
			if slot[0] != base[i] {
				t.Errorf("slot %d first alternative %q, want base word %q", i, slot[0], base[i])
			}
			for _, w := range slot {
				if _, err := cdg.Resolve(g, []string{w}, nil); err != nil {
					t.Errorf("slot %d alternative %q not in english lexicon: %v", i, w, err)
				}
			}
		}
	}
	// Deterministic per variant, distinct across variants somewhere.
	a := EnglishLattice(5, 3, 1)
	b := EnglishLattice(5, 3, 1)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("EnglishLattice not deterministic at slot %d", i)
			}
		}
	}
}
