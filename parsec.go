// Package parsec is a Go reproduction of PARSEC — "Log Time Parsing on
// the MasPar MP-1" (Helzerman & Harper, ICPP 1992): Constraint
// Dependency Grammar (CDG) parsing, parallelized.
//
// The package is a thin facade over the implementation packages:
//
//	internal/cdg     — the CDG formalism and constraint language
//	internal/cn      — constraint networks (domains, arcs, propagation)
//	internal/serial  — the sequential O(k·n⁴) reference parser
//	internal/pram    — a CRCW P-RAM simulator and the O(k) algorithm
//	internal/maspar  — a MasPar MP-1 SIMD simulator (router, scans)
//	internal/core    — PARSEC: the parallel parser on those machines
//	internal/cfg     — CFG baselines (CKY, Earley, mesh automaton)
//	internal/grammars— ready-made grammars (the paper's demo, English,
//	                   the copy language w·w, Dyck, aⁿbⁿ, …)
//
// Quick start:
//
//	p := parsec.NewParser(parsec.PaperDemo(), parsec.WithBackend(parsec.MasPar))
//	res, err := p.Parse([]string{"the", "program", "runs"})
//	if err != nil { … }
//	fmt.Println(res.Accepted(), res.ModelTime)
//	for _, a := range res.Parses(0) { fmt.Print(a) }
//
// Parsing under a deadline — the context is checked between constraint
// propagations and consistency rounds, so cancellation stops a long
// parse mid-algorithm:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
//	defer cancel()
//	res, err := p.ParseContext(ctx, words) // err == context.DeadlineExceeded on expiry
//
// The same parsers are served over HTTP by cmd/parsecd (internal/server):
// POST /v1/parse with request batching, a compiled-grammar cache, and
// Prometheus metrics; cmd/parsecload generates load against it.
package parsec

import (
	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/maspar"
)

// Grammar is a validated CDG grammar ⟨Σ, L, R, T, C⟩.
type Grammar = cdg.Grammar

// GrammarBuilder assembles a Grammar programmatically.
type GrammarBuilder = cdg.Builder

// Sentence is a tokenized, category-resolved input.
type Sentence = cdg.Sentence

// Parser parses sentences of one grammar on one machine model.
type Parser = core.Parser

// Result is the outcome of a parse.
type Result = core.Result

// Assignment is one extracted parse (a precedence graph).
type Assignment = cn.Assignment

// Network is a constraint network (inspectable parse state).
type Network = cn.Network

// Option configures a Parser.
type Option = core.Option

// Backend selects the machine model.
type Backend = core.Backend

// Machine models.
const (
	Serial = core.Serial
	PRAM   = core.PRAM
	MasPar = core.MasPar
	Mesh   = core.Mesh
)

// PhysicalPEs is the paper's MP-1 configuration (16,384 PEs).
const PhysicalPEs = maspar.PhysicalPEs

// NewGrammarBuilder starts an empty grammar.
func NewGrammarBuilder() *GrammarBuilder { return cdg.NewBuilder() }

// ParseGrammar loads a grammar from its textual s-expression form.
func ParseGrammar(src string) (*Grammar, error) { return cdg.ParseGrammar(src) }

// NewParser builds a parser for g; the default backend is the MasPar
// with the paper's 16K-PE configuration.
func NewParser(g *Grammar, opts ...Option) *Parser { return core.NewParser(g, opts...) }

// WithBackend selects the machine model.
func WithBackend(b Backend) Option { return core.WithBackend(b) }

// WithPEs sets the simulated physical PE count.
func WithPEs(n int) Option { return core.WithPEs(n) }

// WithFilter toggles the filtering phase.
func WithFilter(on bool) Option { return core.WithFilter(on) }

// WithMaxFilterIters bounds filtering rounds (<= 0: to fixpoint).
func WithMaxFilterIters(n int) Option { return core.WithMaxFilterIters(n) }

// PaperDemo returns the paper's §1 grammar for "The program runs".
func PaperDemo() *Grammar { return grammars.PaperDemo() }

// English returns the larger English fragment with PP-attachment
// ambiguity.
func English() *Grammar { return grammars.English() }

// CopyLanguage returns the grammar of { w·w } — beyond context-free.
func CopyLanguage() *Grammar { return grammars.CopyLanguage() }

// Dyck returns the balanced-brackets grammar.
func Dyck() *Grammar { return grammars.Dyck() }

// AnBn returns the { aⁿbⁿ } grammar.
func AnBn() *Grammar { return grammars.AnBn() }

// CrossSerial returns the { aⁿbᵐcⁿdᵐ } cross-serial-dependency grammar
// — mildly context-sensitive, beyond CFG.
func CrossSerial() *Grammar { return grammars.CrossSerial() }

// RenderPrecedenceGraph pretty-prints one parse in the style of the
// paper's Figure 7.
func RenderPrecedenceGraph(a *Assignment) string { return cn.RenderPrecedenceGraph(a) }
