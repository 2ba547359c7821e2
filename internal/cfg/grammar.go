// Package cfg provides the context-free-grammar substrate used by the
// paper's architecture-comparison table (Figure 8): CNF grammars, the
// serial CKY recognizer (the table's O(k·n³) sequential CFG row), an
// Earley recognizer (cross-check), a two-dimensional mesh
// cellular-automaton CKY in the style of Kosaraju 1975 (the table's
// O(k·n)-time, O(n²)-cell row), a random CNF grammar generator for
// differential testing, and an encoder from regular grammars into CDG
// (a machine-checkable fragment of Maruyama's result that CDG subsumes
// CFGs; the canonical context-free and non-context-free CDG grammars
// live in internal/grammars).
package cfg

import (
	"fmt"
	"sort"
	"strings"
)

// NT is a nonterminal index.
type NT int

// BinRule is A → B C.
type BinRule struct {
	A, B, C NT
}

// TermRule is A → t for terminal index t.
type TermRule struct {
	A    NT
	Term int
}

// Grammar is a context-free grammar in Chomsky normal form. Terminals
// are interned strings; nonterminal 0 is not special — Start names the
// start symbol.
type Grammar struct {
	ntNames []string
	terms   []string
	termIdx map[string]int
	Start   NT
	Bin     []BinRule
	Term    []TermRule
}

// NewGrammar builds a validated CNF grammar. ntNames supplies the
// nonterminal alphabet; start must be one of them.
func NewGrammar(ntNames []string, start string) (*Grammar, error) {
	if len(ntNames) == 0 {
		return nil, fmt.Errorf("cfg: no nonterminals")
	}
	g := &Grammar{
		ntNames: append([]string(nil), ntNames...),
		termIdx: map[string]int{},
	}
	seen := map[string]bool{}
	for _, n := range ntNames {
		if seen[n] {
			return nil, fmt.Errorf("cfg: duplicate nonterminal %q", n)
		}
		seen[n] = true
	}
	s, ok := g.ntByName(start)
	if !ok {
		return nil, fmt.Errorf("cfg: start symbol %q is not a declared nonterminal", start)
	}
	g.Start = s
	return g, nil
}

func (g *Grammar) ntByName(name string) (NT, bool) {
	for i, n := range g.ntNames {
		if n == name {
			return NT(i), true
		}
	}
	return 0, false
}

// NumNT returns the nonterminal count.
func (g *Grammar) NumNT() int { return len(g.ntNames) }

// Terminals returns the interned terminal alphabet.
func (g *Grammar) Terminals() []string { return append([]string(nil), g.terms...) }

// InternTerm returns (creating if needed) the index of terminal t.
func (g *Grammar) InternTerm(t string) int {
	if i, ok := g.termIdx[t]; ok {
		return i
	}
	i := len(g.terms)
	g.terms = append(g.terms, t)
	g.termIdx[t] = i
	return i
}

// TermIndex returns the index of terminal t, or -1 if unknown.
func (g *Grammar) TermIndex(t string) int {
	if i, ok := g.termIdx[t]; ok {
		return i
	}
	return -1
}

// AddBin adds A → B C by nonterminal names.
func (g *Grammar) AddBin(a, b, c string) error {
	A, ok := g.ntByName(a)
	if !ok {
		return fmt.Errorf("cfg: unknown nonterminal %q", a)
	}
	B, ok := g.ntByName(b)
	if !ok {
		return fmt.Errorf("cfg: unknown nonterminal %q", b)
	}
	C, ok := g.ntByName(c)
	if !ok {
		return fmt.Errorf("cfg: unknown nonterminal %q", c)
	}
	g.Bin = append(g.Bin, BinRule{A, B, C})
	return nil
}

// AddTerm adds A → t.
func (g *Grammar) AddTerm(a, t string) error {
	A, ok := g.ntByName(a)
	if !ok {
		return fmt.Errorf("cfg: unknown nonterminal %q", a)
	}
	g.Term = append(g.Term, TermRule{A: A, Term: g.InternTerm(t)})
	return nil
}

// PreterminalSet returns the bitset-as-bools of nonterminals deriving
// terminal index t in one step.
func (g *Grammar) PreterminalSet(t int) []bool {
	out := make([]bool, len(g.ntNames))
	for _, r := range g.Term {
		if r.Term == t {
			out[r.A] = true
		}
	}
	return out
}

// String renders the grammar compactly for diagnostics.
func (g *Grammar) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "start %s\n", g.ntNames[g.Start])
	for _, r := range g.Bin {
		fmt.Fprintf(&b, "%s -> %s %s\n", g.ntNames[r.A], g.ntNames[r.B], g.ntNames[r.C])
	}
	rules := make([]string, 0, len(g.Term))
	for _, r := range g.Term {
		rules = append(rules, fmt.Sprintf("%s -> %q", g.ntNames[r.A], g.terms[r.Term]))
	}
	sort.Strings(rules)
	for _, r := range rules {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// rng is a tiny deterministic generator for the random-grammar and
// random-string helpers (xorshift64*; stdlib-only and reproducible).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n).
func (r *rng) Intn(n int) int { return int(r.next() % uint64(n)) }

// Random builds a random CNF grammar with the given shape, useful for
// differential testing of the recognizers. All nonterminals get at
// least one terminal rule so most are productive.
func Random(seed uint64, numNT, numTerms, numBin int) *Grammar {
	r := newRNG(seed)
	names := make([]string, numNT)
	for i := range names {
		names[i] = fmt.Sprintf("N%d", i)
	}
	g, err := NewGrammar(names, names[0])
	if err != nil {
		panic(err)
	}
	terms := make([]string, numTerms)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	for i := 0; i < numNT; i++ {
		if err := g.AddTerm(names[i], terms[r.Intn(numTerms)]); err != nil {
			panic(err)
		}
	}
	for i := 0; i < numBin; i++ {
		if err := g.AddBin(names[r.Intn(numNT)], names[r.Intn(numNT)], names[r.Intn(numNT)]); err != nil {
			panic(err)
		}
	}
	return g
}

// RandomString draws a length-n string over g's terminal alphabet.
func RandomString(g *Grammar, seed uint64, n int) []string {
	r := newRNG(seed)
	terms := g.Terminals()
	if len(terms) == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = terms[r.Intn(len(terms))]
	}
	return out
}
