package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/workload"
)

// TestCountersGolden pins every metrics.Counters field of every backend
// byte for byte: serial, P-RAM, MasPar and mesh on the paper's demo
// sentence, English at n = 5, 8 and 17, and one chain sentence, whose
// filtering cascades one link per round. P-RAM stops at n = 8 (its
// n = 17 parse takes seconds). MasPar adds rows on a 1,024-PE machine,
// where every sentence but the demo spans several virtual layers, and
// with a consistency round after every constraint. A change that moves
// a counter, and so a cycle the paper's cost model charges, shows here
// first; -update rewrites testdata/counters_golden.txt.
func TestCountersGolden(t *testing.T) {
	checkGolden(t, "counters", countersReport)
}

func countersReport() string {
	type sentence struct {
		name  string
		g     *cdg.Grammar
		words []string
	}
	sentences := []sentence{
		{"demo", grammars.PaperDemo(), grammars.PaperSentence()},
		{"english5", grammars.English(), workload.EnglishSentence(5)},
		{"english8", grammars.English(), workload.EnglishSentence(8)},
		{"english17", grammars.English(), workload.EnglishSentence(17)},
		{"chain6", grammars.Chain(), grammars.ChainSentence(6)},
	}
	type run struct {
		name string
		opts []core.Option
		maxN int // longest sentence the row runs (0: all)
	}
	runs := []run{
		{"serial", []core.Option{core.WithBackend(core.Serial)}, 0},
		{"pram", []core.Option{core.WithBackend(core.PRAM)}, 8},
		{"maspar", []core.Option{core.WithBackend(core.MasPar)}, 0},
		{"maspar,pes=1024", []core.Option{core.WithBackend(core.MasPar), core.WithPEs(1024)}, 0},
		{"maspar,per-constraint", []core.Option{core.WithBackend(core.MasPar), core.WithConsistencyPerConstraint(true)}, 0},
		{"mesh", []core.Option{core.WithBackend(core.Mesh)}, 0},
	}
	var b strings.Builder
	for _, s := range sentences {
		fmt.Fprintf(&b, "%s: %s\n", s.name, strings.Join(s.words, " "))
		for _, r := range runs {
			if r.maxN > 0 && len(s.words) > r.maxN {
				continue
			}
			res, err := core.NewParser(s.g, r.opts...).Parse(s.words)
			if err != nil {
				fmt.Fprintf(&b, "  %s: %v\n", r.name, err)
				continue
			}
			fmt.Fprintf(&b, "  %s: accepted=%v %+v\n", r.name, res.Accepted(), *res.Counters)
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}
