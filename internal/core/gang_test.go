package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/grammars"
)

func resolveAll(t *testing.T, g *cdg.Grammar, sentences []string) []*cdg.Sentence {
	t.Helper()
	out := make([]*cdg.Sentence, len(sentences))
	for i, s := range sentences {
		sent, err := cdg.Resolve(g, strings.Fields(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sent
	}
	return out
}

// TestGangMatchesSolo is the gang-execution contract: a ganged run
// produces, for every member, the same network AND the same
// cycle/scan/router/check counters as a solo run of that sentence —
// the shared instruction stream's prefix up to a member's settling
// round IS the solo program, so nothing about the paper's cost model
// changes when the host batches. Sentence sets mix accepted, rejected,
// ambiguous, and duplicated members, across several grammars and gang
// sizes (including a gang of one, the solo path itself, and a gang of
// identical members, which ParseGangContext parses once). No two
// members share a network: clearing a live arc bit in one leaves every
// other member equal to its solo run.
func TestGangMatchesSolo(t *testing.T) {
	cases := []struct {
		name      string
		g         *cdg.Grammar
		sentences []string
		opts      []Option
	}{
		{
			name: "english3",
			g:    grammars.English(),
			sentences: []string{
				"the dog walked",
				"fido took rex",
				"walked the dog", // rejected: members need not all parse
				"rex caught fido",
			},
		},
		{
			name: "english4-with-duplicates",
			g:    grammars.English(),
			sentences: []string{
				"rex caught the ball",
				"the dog walked quickly",
				"rex caught the ball", // identical segments must not interfere
				"rex saw the man",
			},
		},
		{
			name:      "english-ambiguous8",
			g:         grammars.English(),
			sentences: []string{"the dog saw the man with the telescope", "the big old dog saw the old man"},
		},
		{
			name:      "paperdemo",
			g:         grammars.PaperDemo(),
			sentences: []string{"The program runs", "The program runs"},
		},
		{
			name:      "english-all-identical",
			g:         grammars.English(),
			sentences: gangOf([]string{"the dog saw the man with the telescope"}, 5),
		},
		{
			name:      "bounded-iters",
			g:         grammars.English(),
			sentences: []string{"the dog saw the man", "every cat liked the ball"},
			opts:      []Option{WithMaxFilterIters(2)},
		},
		{
			name:      "per-constraint-rounds",
			g:         grammars.English(),
			sentences: []string{"the dog walked", "fido took rex", "rex saw fido"},
			opts:      []Option{WithConsistencyPerConstraint(true)},
		},
		{
			name:      "no-filter",
			g:         grammars.English(),
			sentences: []string{"the dog walked", "rex caught fido"},
			opts:      []Option{WithFilter(false)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewParser(tc.g, tc.opts...)
			sents := resolveAll(t, tc.g, tc.sentences)

			solo := make([]*Result, len(sents))
			for i, s := range sents {
				res, err := p.ParseSentenceContext(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = res
			}

			ganged, err := p.ParseGangContext(context.Background(), sents)
			if err != nil {
				t.Fatal(err)
			}
			if len(ganged) != len(sents) {
				t.Fatalf("gang returned %d results for %d sentences", len(ganged), len(sents))
			}
			for i := range sents {
				if !solo[i].Network.EqualState(ganged[i].Network) {
					t.Errorf("sentence %d (%q): gang network differs from solo\nsolo:\n%s\ngang:\n%s",
						i, tc.sentences[i], solo[i].Network.Render(), ganged[i].Network.Render())
				}
				if !reflect.DeepEqual(solo[i].Counters, ganged[i].Counters) {
					t.Errorf("sentence %d (%q): gang counters differ from solo\nsolo: %v\ngang: %v",
						i, tc.sentences[i], solo[i].Counters, ganged[i].Counters)
				}
				if solo[i].ModelTime != ganged[i].ModelTime {
					t.Errorf("sentence %d: ModelTime %v (gang) != %v (solo)", i, ganged[i].ModelTime, solo[i].ModelTime)
				}
			}
			for i := range sents {
				arc, r, c, ok := liveArcBit(ganged[i].Network)
				if !ok {
					continue
				}
				arc.M.ClearBit(r, c)
				if ganged[i].Network.EqualState(solo[i].Network) {
					t.Fatalf("sentence %d: clearing a live arc bit left it equal to solo", i)
				}
				for j := range sents {
					if j != i && !ganged[j].Network.EqualState(solo[j].Network) {
						t.Errorf("sentence %d changed when sentence %d's arc bit was cleared: the two share state", j, i)
					}
				}
				arc.M.SetBit(r, c)
			}
		})
	}
}

// liveArcBit returns an arc and a set matrix entry (r, c) whose two
// role values are both live, the entries EqualState compares.
func liveArcBit(nw *cn.Network) (arc *cn.Arc, r, c int, ok bool) {
	for _, a := range nw.Arcs() {
		for _, i := range nw.Domain(a.A).Ones() {
			for _, j := range nw.Domain(a.B).Ones() {
				if a.M.Get(i, j) {
					return a, i, j, true
				}
			}
		}
	}
	return nil, 0, 0, false
}

// TestGangOfOneIsSolo: a gang of one runs the identical code path as
// ParseSentenceContext (a solo MasPar parse calls ParseGangContext with
// one sentence), so the results must agree exactly.
func TestGangOfOneIsSolo(t *testing.T) {
	g := grammars.English()
	p := NewParser(g)
	sents := resolveAll(t, g, []string{"the dog saw the man"})
	solo, err := p.ParseSentenceContext(context.Background(), sents[0])
	if err != nil {
		t.Fatal(err)
	}
	ganged, err := p.ParseGangContext(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	if !solo.Network.EqualState(ganged[0].Network) || !reflect.DeepEqual(solo.Counters, ganged[0].Counters) {
		t.Fatal("gang of one differs from solo")
	}
}

// TestGangMixedLengthsRejected: the gang API requires one sentence
// length (the server's pool groups by length before calling it).
func TestGangMixedLengthsRejected(t *testing.T) {
	g := grammars.English()
	p := NewParser(g)
	sents := resolveAll(t, g, []string{"the dog walked", "rex caught the ball"})
	if _, err := p.ParseGangContext(context.Background(), sents); err == nil {
		t.Fatal("mixed-length gang should be rejected on the MasPar backend")
	}
}

// TestGangFallbackBackends: non-MasPar backends serve gangs as
// sequential solo parses with identical results.
func TestGangFallbackBackends(t *testing.T) {
	g := grammars.English()
	p := NewParser(g, WithBackend(Serial))
	sents := resolveAll(t, g, []string{"the dog walked", "fido took rex"})
	ganged, err := p.ParseGangContext(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sents {
		solo, err := p.ParseSentenceContext(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !solo.Network.EqualState(ganged[i].Network) {
			t.Errorf("serial gang fallback differs from solo at %d", i)
		}
	}
}

// TestGangEmpty: an empty gang is a no-op.
func TestGangEmpty(t *testing.T) {
	p := NewParser(grammars.English())
	res, err := p.ParseGangContext(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty gang: res=%v err=%v", res, err)
	}
}
