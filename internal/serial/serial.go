// Package serial implements the sequential O(k·n⁴) CDG parsing
// algorithm of section 1.4 of the paper: unary constraint propagation,
// arc construction, binary constraint propagation with one consistency-
// maintenance pass per constraint, and a final filtering phase that
// iterates consistency maintenance to a fixpoint.
//
// This is the baseline the paper ran on a Sun SPARCstation 1 (15 s per
// constraint, ~3 min for a 7-word sentence); here it doubles as the
// reference implementation that the P-RAM and MasPar engines are tested
// against bit-for-bit.
package serial

import (
	"context"
	"fmt"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/metrics"
)

// Options tune the serial parser.
type Options struct {
	// Ctx, when non-nil, is checked between constraint propagations and
	// between filtering passes; a deadline or cancellation aborts the
	// parse mid-algorithm with the context's error instead of running to
	// completion. Nil means never cancelled.
	Ctx context.Context
	// Filter enables the optional filtering phase (§1.4: "filtering is
	// an optional part of the parsing algorithm").
	Filter bool
	// MaxFilterIters bounds filtering passes; <= 0 means run to
	// fixpoint.
	MaxFilterIters int
	// Phase, when non-nil, is invoked with a snapshot label and the
	// live network after each algorithm phase — the hook used to
	// regenerate the Figure 1–6 walkthrough. The network must not be
	// mutated by the callback.
	Phase func(label string, nw *cn.Network)
}

// DefaultOptions filters to fixpoint, like the paper's parser.
func DefaultOptions() Options { return Options{Filter: true} }

// Result is the outcome of one serial parse.
type Result struct {
	Network  *cn.Network
	Counters *metrics.Counters
}

// Accepted reports the paper's acceptance condition (every role
// non-empty after propagation).
func (r *Result) Accepted() bool { return r.Network.AllRolesAlive() }

// Ambiguous reports whether any role still holds multiple role values.
func (r *Result) Ambiguous() bool { return r.Network.Ambiguous() }

// Parses enumerates up to limit precedence graphs (limit <= 0: all).
func (r *Result) Parses(limit int) []*cn.Assignment { return r.Network.ExtractParses(limit) }

// Parse runs the full serial algorithm for sent under g.
func Parse(g *cdg.Grammar, sent *cdg.Sentence, opt Options) (*Result, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sp := cdg.NewSpace(g, sent)
	nw := cn.New(sp)
	snapshot := func(label string) {
		if opt.Phase != nil {
			opt.Phase(label, nw)
		}
	}
	snapshot("initial")

	// Unary constraint propagation: O(k_u · n²).
	for _, c := range g.Unary() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nw.ApplyUnary(c)
		snapshot("unary:" + c.Name)
	}
	snapshot("after-unary")

	// Binary constraint propagation, each followed by one consistency-
	// maintenance pass: O(k_b · n⁴).
	for _, c := range g.Binary() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nw.ApplyBinary(c)
		snapshot("binary:" + c.Name)
		nw.ConsistencyPass()
		snapshot("consistency:" + c.Name)
	}

	// Filtering: repeat consistency maintenance until no role value
	// loses support (or the configured bound).
	if opt.Filter {
		if _, err := nw.FilterCtx(ctx, opt.MaxFilterIters); err != nil {
			return nil, err
		}
		snapshot("after-filtering")
	}
	return &Result{Network: nw, Counters: nw.Counters}, nil
}

// ParseWords resolves words against the lexicon (first category wins on
// lexical ambiguity) and parses.
func ParseWords(g *cdg.Grammar, words []string, opt Options) (*Result, error) {
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		return nil, err
	}
	return Parse(g, sent, opt)
}

// Reading pairs one category assignment of a lexically ambiguous
// sentence with its parse result.
type Reading struct {
	Sentence *cdg.Sentence
	Result   *Result
}

// ParseAllReadings parses every category assignment the lexicon admits
// (up to limit; <= 0 for all) and returns only the accepted readings —
// how a CDG front end narrows speech-style lexical ambiguity.
func ParseAllReadings(g *cdg.Grammar, words []string, limit int, opt Options) ([]Reading, error) {
	sents, err := cdg.ResolveAll(g, words, limit)
	if err != nil {
		return nil, err
	}
	var out []Reading
	for _, sent := range sents {
		res, err := Parse(g, sent, opt)
		if err != nil {
			return nil, err
		}
		if res.Accepted() {
			out = append(out, Reading{Sentence: sent, Result: res})
		}
	}
	return out, nil
}

// Refine propagates additional constraints into an already-parsed
// network — the paper's contextual constraint sets (§1.5): "a core set
// of constraints … followed by other contextually-determined constraint
// sets". Each extra constraint is propagated like a grammar constraint
// (binary ones followed by one consistency pass), then filtering reruns
// to the requested bound. The network is refined in place.
func Refine(nw *cn.Network, extra []*cdg.Constraint, opt Options) {
	for _, c := range extra {
		switch c.Arity {
		case 1:
			nw.ApplyUnary(c)
		case 2:
			nw.ApplyBinary(c)
			nw.ConsistencyPass()
		}
	}
	if opt.Filter {
		ctx := opt.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		// Refinement is advisory: a cancelled filter leaves the network
		// partially filtered, which is still a valid (over-approximate)
		// refinement, so the error is not surfaced here.
		nw.FilterCtx(ctx, opt.MaxFilterIters)
	}
}

// PropagateOne builds a fresh network, applies all unary constraints,
// then applies exactly one binary constraint plus one consistency pass.
// It exists for the §3 "time to propagate a single constraint"
// measurements.
func PropagateOne(g *cdg.Grammar, sent *cdg.Sentence, binaryIdx int) (*cn.Network, error) {
	if binaryIdx < 0 || binaryIdx >= len(g.Binary()) {
		return nil, fmt.Errorf("serial: binary constraint index %d out of range [0,%d)", binaryIdx, len(g.Binary()))
	}
	sp := cdg.NewSpace(g, sent)
	nw := cn.New(sp)
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	nw.ApplyBinary(g.Binary()[binaryIdx])
	nw.ConsistencyPass()
	return nw, nil
}
