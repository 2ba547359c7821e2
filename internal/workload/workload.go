// Package workload generates the benchmark inputs for the experiment
// harness: grammatical sentences of arbitrary length for the paper's
// demo grammar and the English grammar, plus mixed batches for
// throughput measurements.
package workload

import (
	"fmt"
	"math/rand"
)

// DemoSentence returns an n-word sentence over the PaperDemo lexicon
// (n ≥ 1). For n ≤ 3 it is the paper's own example truncated; longer
// sentences extend the pattern with determiner–noun pairs. Not every
// length is grammatical under the demo grammar — the harness measures
// propagation cost, which is shape- not acceptance-dependent.
func DemoSentence(n int) []string {
	if n < 1 {
		panic(fmt.Sprintf("workload: DemoSentence(%d)", n))
	}
	nouns := []string{"program", "compiler", "machine", "parser"}
	out := make([]string, 0, n)
	// Leading determiner–noun pairs, then the verb, then trailing
	// pairs to reach the requested length.
	lead := (n - 1) / 2
	for i := 0; i < lead; i++ {
		out = append(out, "the", nouns[i%len(nouns)])
	}
	if len(out)+1 < n {
		out = append(out, nouns[lead%len(nouns)])
	}
	out = append(out, "runs")
	for len(out) < n {
		out = append(out, "the")
	}
	return out[:n]
}

// EnglishSentence returns a grammatical n-word sentence for the English
// grammar, n ≥ 3: a base clause padded with attributive adjectives
// (one word each) and prepositional phrases (three words each).
func EnglishSentence(n int) []string {
	if n < 3 {
		panic(fmt.Sprintf("workload: EnglishSentence(%d) — need n ≥ 3", n))
	}
	rest := n - 3
	adjs := rest % 3
	pps := rest / 3
	adjNames := []string{"big", "old"}
	out := []string{"the"}
	for i := 0; i < adjs; i++ {
		out = append(out, adjNames[i%len(adjNames)])
	}
	out = append(out, "dog", "walked")
	ppNouns := []string{"park", "telescope", "ball", "cat"}
	for i := 0; i < pps; i++ {
		out = append(out, "in", "the", ppNouns[i%len(ppNouns)])
	}
	return out
}

// AmbiguousEnglish returns the PP-attachment sentence with extra PPs:
// each additional PP multiplies the reading count.
func AmbiguousEnglish(pps int) []string {
	out := []string{"the", "dog", "saw", "the", "man"}
	ppHeads := []string{"telescope", "park", "ball"}
	for i := 0; i < pps; i++ {
		out = append(out, "with", "the", ppHeads[i%len(ppHeads)])
	}
	return out
}

// EnglishLattice returns an n-slot word lattice (n ≥ 3) shaped like a
// speech recognizer's n-best output over the English grammar: slot i's
// first alternative is EnglishSentence(n)'s word, the remaining alts-1
// alternatives are same-category confusions, so at least one path
// through the lattice is grammatical while most are not. variant
// rotates which confusions fill the extra alternatives, giving distinct
// lattices for distinct utterances while staying fully deterministic.
func EnglishLattice(n, alts int, variant uint64) [][]string {
	if n < 3 || alts < 1 {
		panic(fmt.Sprintf("workload: EnglishLattice(%d, %d)", n, alts))
	}
	base := EnglishSentence(n)
	out := make([][]string, n)
	for i, w := range base {
		conf := englishConfusions(w)
		slot := make([]string, 0, alts)
		slot = append(slot, w)
		for j := 0; len(slot) < alts && j < len(conf); j++ {
			c := conf[(int(variant%uint64(len(conf)))+i+j)%len(conf)]
			if c != w {
				slot = append(slot, c)
			}
		}
		out[i] = slot
	}
	return out
}

// englishConfusions lists the acoustically-confusable stand-ins for a
// word of the English lexicon — same-category words, so the confusion
// substitutes cleanly, plus one cross-category intruder to give the
// parser ungrammatical paths to reject.
func englishConfusions(w string) []string {
	switch w {
	case "the", "a", "every":
		return []string{"a", "every", "the"}
	case "big", "old", "red":
		return []string{"old", "red", "big"}
	case "dog", "man", "telescope", "park", "cat", "ball":
		return []string{"man", "cat", "ball", "park", "dog", "walked"}
	case "saw", "walked", "liked", "chased":
		return []string{"liked", "chased", "saw", "walked", "ball"}
	case "with", "in", "of":
		return []string{"in", "of", "with"}
	default:
		return []string{"dog", "saw", "the"}
	}
}

// CopyString returns the length-2n copy-language string (w·w) derived
// from the bits of pattern.
func CopyString(n int, pattern uint64) []string {
	half := make([]string, n)
	for i := range half {
		if pattern>>(uint(i)%64)&1 == 0 {
			half[i] = "a"
		} else {
			half[i] = "b"
		}
	}
	return append(append([]string{}, half...), half...)
}

// SentenceFor draws a grammatical-shape sentence for the named built-in
// grammar — demo, english, ww or dyck; any other name gets a demo
// sentence — of at most maxLen words for demo and english. It is the
// one request-mix generator of the load tools (parsecload and the fleet
// benchmark), so one seed replays the same sentences in both.
func SentenceFor(name string, rng *rand.Rand, maxLen int) []string {
	switch name {
	case "english":
		return EnglishSentence(3 + rng.Intn(max(1, maxLen-2)))
	case "ww":
		return CopyString(1+rng.Intn(3), rng.Uint64())
	case "dyck":
		return BalancedParens(1 + rng.Intn(3))
	default:
		return DemoSentence(1 + rng.Intn(max(1, maxLen)))
	}
}

// BalancedParens returns the fully nested balanced string of depth n:
// ((( … ))).
func BalancedParens(n int) []string {
	out := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, "(")
	}
	for i := 0; i < n; i++ {
		out = append(out, ")")
	}
	return out
}
