package serial

import (
	"testing"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/grammars"
	"repro/internal/workload"
)

// TestPhasesKeepLivePairs checks after every phase of a parse that each
// set matrix bit lies on a live×live pair, the property that lets the
// network's support and elimination passes skip dead rows.
func TestPhasesKeepLivePairs(t *testing.T) {
	type input struct {
		name  string
		g     *cdg.Grammar
		words []string
	}
	inputs := []input{
		{"demo", grammars.PaperDemo(), grammars.PaperSentence()},
		{"demo n=7", grammars.PaperDemo(), workload.DemoSentence(7)},
		{"english n=8", grammars.English(), workload.EnglishSentence(8)},
		{"english n=12", grammars.English(), workload.EnglishSentence(12)},
		{"english ambiguous", grammars.English(), workload.AmbiguousEnglish(2)},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		g := grammars.Random(seed)
		inputs = append(inputs, input{"random", g, grammars.RandomSentence(g, seed, 2+int(seed%6))})
	}
	for _, in := range inputs {
		phases := 0
		opt := DefaultOptions()
		opt.Phase = func(label string, nw *cn.Network) {
			phases++
			if err := nw.CheckLivePairs(); err != nil {
				t.Errorf("%s %v after %s: %v", in.name, in.words, label, err)
			}
		}
		if _, err := ParseWords(in.g, in.words, opt); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if phases < 3 {
			t.Errorf("%s: %d phases observed", in.name, phases)
		}
	}
}
