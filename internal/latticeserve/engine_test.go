package latticeserve

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/lattice"
	"repro/internal/serial"
)

func ctxb() context.Context { return context.Background() }

// TestIncrementalMatchesSerial is the soundness anchor of the whole
// subsystem: for accepted, rejected, and ambiguous sentences across
// several grammars, the prefix-reuse path must land on a filtered
// network bit-for-bit equal (on live state) to the from-scratch serial
// parse — both cold and after the cache has been warmed by every
// prefix of the same sentence.
func TestIncrementalMatchesSerial(t *testing.T) {
	cases := []struct {
		grammar string
		words   []string
	}{
		{"english", []string{"the", "dog", "walked"}},
		{"english", []string{"the", "dog", "saw", "the", "man", "with", "the", "telescope"}}, // ambiguous
		{"english", []string{"the", "walked", "dog"}},                                        // rejected
		{"chain", grammars.ChainSentence(5)},
		{"dyck", []string{"(", "(", ")", ")"}},
		{"dyck", []string{"(", ")", ")"}}, // rejected
	}
	for _, tc := range cases {
		g, err := grammars.ByName(tc.grammar)
		if err != nil {
			t.Fatal(err)
		}
		sent, err := cdg.Resolve(g, tc.words, nil)
		if err != nil {
			t.Fatalf("%s/%v: %v", tc.grammar, tc.words, err)
		}
		ref, err := serial.Parse(g, sent, serial.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		refParses := ref.Network.ExtractParses(0)

		for _, warm := range []bool{false, true} {
			e := New(Config{})
			req := Request{Grammar: g, GrammarKey: tc.grammar}
			if warm {
				// Warm the cache with every proper prefix first.
				for i := 1; i < len(tc.words); i++ {
					if _, err := e.ParsePathContext(ctxb(), req, tc.words[:i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := e.ParsePathContext(ctxb(), req, tc.words)
			if err != nil {
				t.Fatal(err)
			}
			if warm && got.ReusedSlots != len(tc.words)-1 {
				t.Errorf("%s/%v warm: reused %d slots, want %d",
					tc.grammar, tc.words, got.ReusedSlots, len(tc.words)-1)
			}
			if !got.Network.EqualState(ref.Network) {
				t.Errorf("%s/%v warm=%v: incremental network differs from serial\nserial: %s\nincr:   %s",
					tc.grammar, tc.words, warm, ref.Network.Stats(), got.Network.Stats())
			}
			if got.Accepted != (len(refParses) > 0) || got.Ambiguous != ref.Ambiguous() || len(got.Parses) != len(refParses) {
				t.Errorf("%s/%v warm=%v: verdict accepted=%v ambiguous=%v parses=%d, want %v/%v/%d",
					tc.grammar, tc.words, warm, got.Accepted, got.Ambiguous, len(got.Parses),
					len(refParses) > 0, ref.Ambiguous(), len(refParses))
			}
		}
	}
}

// The deterministic form of the warm<cold acceptance criterion: the
// constraint checks paid for a one-slot warm extension must be under
// half of a cold full-sentence parse (the benchmark measures the same
// comparison in wall-clock time). The fraction of role-value pairs
// that involve the appended word scales as ~4/n, so the margin widens
// with utterance length; a 14-word utterance sits at ~40%.
func TestWarmExtensionCostsUnderHalfOfCold(t *testing.T) {
	g := grammars.English()
	words := []string{"the", "dog", "saw", "the", "man", "with", "the", "telescope",
		"with", "the", "ball", "with", "the", "telescope"}
	e := New(Config{})
	req := Request{Grammar: g, GrammarKey: "english"}

	cold, err := e.ParsePathContext(ctxb(), Request{Grammar: g, GrammarKey: "english", NoCache: true}, words)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the prefix, then measure extending it by the final word.
	if _, err := e.ParsePathContext(ctxb(), req, words[:len(words)-1]); err != nil {
		t.Fatal(err)
	}
	warm, err := e.ParsePathContext(ctxb(), req, words)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedSlots != len(words)-1 || warm.BuiltSlots != 1 {
		t.Fatalf("warm reuse: reused=%d built=%d", warm.ReusedSlots, warm.BuiltSlots)
	}
	if 2*warm.Counters.ConstraintChecks >= cold.Counters.ConstraintChecks {
		t.Errorf("warm extension cost %d checks, cold parse %d: want warm < 50%% of cold",
			warm.Counters.ConstraintChecks, cold.Counters.ConstraintChecks)
	}
}

// Snapshot-level pin: chaining extendSnapshot word by word produces
// the same propagated (pre-filter) network as building it in one shot.
func TestExtendChainMatchesScratchPropagation(t *testing.T) {
	g := grammars.English()
	words := []string{"the", "dog", "saw", "the", "man"}
	snap, err := buildBase(g, words[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words[1:] {
		if snap, err = extendSnapshot(g, snap, w); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := buildBase(g, words)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.nw.EqualState(ref.nw) {
		t.Fatalf("chained extension differs from scratch propagation\nscratch: %s\nchained: %s",
			ref.nw.Stats(), snap.nw.Stats())
	}
}

// TestSnapshotsKeepLivePairs: every network buildBase and
// extendSnapshot publish sets matrix bits on live×live pairs only, so
// the final filtering pass over a clone may skip dead rows.
func TestSnapshotsKeepLivePairs(t *testing.T) {
	for _, tc := range []struct {
		g     *cdg.Grammar
		words []string
	}{
		{grammars.English(), []string{"the", "dog", "saw", "the", "man", "with", "the", "telescope"}},
		{grammars.PaperDemo(), grammars.PaperSentence()},
	} {
		snap, err := buildBase(tc.g, tc.words[:1])
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.nw.CheckLivePairs(); err != nil {
			t.Errorf("buildBase %v: %v", tc.words[:1], err)
		}
		for i, w := range tc.words[1:] {
			if snap, err = extendSnapshot(tc.g, snap, w); err != nil {
				t.Fatal(err)
			}
			if err := snap.nw.CheckLivePairs(); err != nil {
				t.Errorf("extendSnapshot %v: %v", tc.words[:i+2], err)
			}
		}
	}
}

// An extension-unstable grammar (constant word-position reference)
// must fall back to from-scratch parsing and still answer correctly.
func TestUnstableGrammarFallsBack(t *testing.T) {
	g, err := cdg.NewBuilder().
		Labels("A").
		Categories("w").
		Role("r", "A").
		Word("w", "w").
		Constraint("needs-3-words", `(if (eq (lab x) A) (eq (cat (word 3)) w))`).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.ExtensionStable() {
		t.Fatal("test grammar should be extension-unstable")
	}
	e := New(Config{})
	req := Request{Grammar: g, GrammarKey: "unstable"}
	for _, tc := range []struct {
		n    int
		want bool
	}{{2, false}, {3, true}} {
		words := make([]string, tc.n)
		for i := range words {
			words[i] = "w"
		}
		got, err := e.ParsePathContext(ctxb(), req, words)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != tc.want {
			t.Errorf("n=%d: accepted=%v, want %v", tc.n, got.Accepted, tc.want)
		}
		if got.ReusedSlots != 0 {
			t.Errorf("n=%d: fallback must not reuse snapshots", tc.n)
		}
	}
	if st := e.Stats(); st.Fallbacks != 2 || st.Hits != 0 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 2 fallbacks and an untouched cache", st)
	}
}

// DecodeContext must agree with the brute-force lattice.DecodeBudget
// on the accepted set, scores, parse counts, and ambiguity flags.
func TestDecodeMatchesBruteForce(t *testing.T) {
	g := grammars.English()
	l := lattice.New()
	must(t, l.Words("the"))
	must(t, l.AddSlot(lattice.Alt{Word: "dog", Score: 0.9}, lattice.Alt{Word: "ball", Score: 0.4}))
	must(t, l.AddSlot(lattice.Alt{Word: "saw", Score: 0.7}, lattice.Alt{Word: "walked", Score: 0.6}))
	must(t, l.Words("the"))
	must(t, l.AddSlot(lattice.Alt{Word: "man", Score: 0.8}, lattice.Alt{Word: "chased", Score: 0.3}))

	ref, err := l.DecodeBudget(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	out, err := e.DecodeContext(ctxb(), Request{Grammar: g, GrammarKey: "english"}, l)
	if err != nil {
		t.Fatal(err)
	}
	if out.Expanded != 8 || out.Truncated {
		t.Fatalf("expanded=%d truncated=%v", out.Expanded, out.Truncated)
	}
	var accepted []Hypothesis
	for _, h := range out.Hypotheses {
		if h.Accepted {
			accepted = append(accepted, h)
		}
	}
	if len(accepted) != len(ref.Hypotheses) {
		t.Fatalf("accepted %d hypotheses, brute force %d", len(accepted), len(ref.Hypotheses))
	}
	for i, h := range accepted {
		r := ref.Hypotheses[i]
		if strings.Join(h.Words, " ") != strings.Join(r.Words, " ") || h.Score != r.Score ||
			len(h.Parses) != r.Parses || h.Ambiguous != r.Ambiguous {
			t.Errorf("hypothesis %d: got %v/%.2f/%d/%v, want %v/%.2f/%d/%v",
				i, h.Words, h.Score, len(h.Parses), h.Ambiguous, r.Words, r.Score, r.Parses, r.Ambiguous)
		}
	}
	// The sibling paths share the 4-slot prefix tree: reuse must have
	// happened within this single request.
	if out.PrefixHits == 0 {
		t.Error("expected intra-lattice prefix reuse")
	}
	// Out-of-lexicon candidates reject with the offending word named.
	l2 := lattice.New()
	must(t, l2.AddSlot(lattice.Alt{Word: "the", Score: 0.5}, lattice.Alt{Word: "zzz", Score: 0.9}))
	must(t, l2.Words("dog"))
	must(t, l2.Words("walked"))
	out2, err := e.DecodeContext(ctxb(), Request{Grammar: g, GrammarKey: "english"}, l2)
	if err != nil {
		t.Fatal(err)
	}
	var sawUnknown bool
	for _, h := range out2.Hypotheses {
		if h.Unknown == "zzz" && !h.Accepted {
			sawUnknown = true
		}
	}
	if !sawUnknown || out2.Accepted != 1 {
		t.Errorf("unknown-word handling: accepted=%d hyps=%+v", out2.Accepted, out2.Hypotheses)
	}
}

// LRU behavior: capacity is enforced, evictions are counted, and
// NoCache leaves the cache untouched.
func TestPrefixCacheEvictionAndBypass(t *testing.T) {
	g := grammars.English()
	e := New(Config{PrefixEntries: 2})
	req := Request{Grammar: g, GrammarKey: "english"}
	words := []string{"the", "dog", "saw", "the", "man"}
	if _, err := e.ParsePathContext(ctxb(), req, words); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Entries != 2 || st.Evictions != 3 {
		t.Errorf("entries=%d evictions=%d, want 2/3", st.Entries, st.Evictions)
	}

	e2 := New(Config{})
	if _, err := e2.ParsePathContext(ctxb(), Request{Grammar: g, GrammarKey: "english", NoCache: true}, words); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("NoCache touched the cache: %+v", st)
	}
	// Disabled cache: negative capacity.
	e3 := New(Config{PrefixEntries: -1})
	if _, err := e3.ParsePathContext(ctxb(), req, words); err != nil {
		t.Fatal(err)
	}
	if st := e3.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("disabled cache still used: %+v", st)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
