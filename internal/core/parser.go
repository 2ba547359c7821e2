package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/maspar"
	"repro/internal/meshcdg"
	"repro/internal/metrics"
	"repro/internal/pram"
	"repro/internal/serial"
)

// Backend selects the machine model a Parser runs on.
type Backend int

const (
	// Serial is the sequential O(k·n⁴) reference algorithm (§1.4).
	Serial Backend = iota
	// PRAM is the CRCW P-RAM algorithm: O(k) steps, O(n⁴) processors
	// (§2.1).
	PRAM
	// MasPar is the MP-1 SIMD algorithm: O(k + log n) with 16K PEs and
	// processor virtualization (§2.2).
	MasPar
	// Mesh is CDG on a 2-D mesh of O(n²) cells — Figure 8's remaining
	// CDG row, O(k + n²) time.
	Mesh
)

// Backends lists every machine model.
func Backends() []Backend { return []Backend{Serial, PRAM, MasPar, Mesh} }

func (b Backend) String() string {
	switch b {
	case Serial:
		return "serial"
	case PRAM:
		return "pram"
	case MasPar:
		return "maspar"
	case Mesh:
		return "mesh"
	}
	return "unknown"
}

// ParseBackend maps a backend's name (its String form) back to the
// backend.
func ParseBackend(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.String() == name {
			return b, nil
		}
	}
	var names []string
	for _, b := range Backends() {
		names = append(names, b.String())
	}
	return 0, fmt.Errorf("unknown backend %q (%s)", name, strings.Join(names, "|"))
}

// Option configures a Parser.
type Option func(*config)

type config struct {
	backend Backend
	// phys is the physical PE count for the MasPar backend.
	phys int
	// filter enables the filtering phase; maxFilterIters bounds it
	// (<= 0: run to fixpoint).
	filter         bool
	maxFilterIters int
	// consistencyPerConstraint makes the parallel backends run one
	// consistency round after every constraint like the serial
	// algorithm does — the E6 ablation knob. Costs O(k·log n) instead
	// of O(k + log n) on the MasPar.
	consistencyPerConstraint bool
	// attr, when non-nil, accumulates per-stage wall-clock attribution
	// for MasPar runs (constraint eval vs scans vs router).
	attr *Attribution
}

func defaultConfig() config {
	return config{
		backend: MasPar,
		phys:    maspar.PhysicalPEs,
		filter:  true,
	}
}

// WithBackend selects the machine model.
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithPEs sets the physical PE count of the simulated MasPar (default
// 16,384, the full MP-1 of the paper).
func WithPEs(p int) Option { return func(c *config) { c.phys = p } }

// WithFilter toggles the filtering phase (default on).
func WithFilter(on bool) Option { return func(c *config) { c.filter = on } }

// WithMaxFilterIters bounds filtering passes (<= 0 runs to fixpoint,
// the default; the paper's design decision #5 uses a small constant).
func WithMaxFilterIters(n int) Option { return func(c *config) { c.maxFilterIters = n } }

// WithConsistencyPerConstraint makes parallel backends run consistency
// maintenance after every constraint, like the serial algorithm — the
// ablation of experiment E6.
func WithConsistencyPerConstraint(on bool) Option {
	return func(c *config) { c.consistencyPerConstraint = on }
}

// WithAttribution makes MasPar parses accumulate per-stage wall-clock
// time (constraint evaluation, consistency scans, router transposes)
// into a. Pass nil (the default) to disable timing. a is safe to share
// across parsers and goroutines; BenchmarkEndToEndParse uses this to
// report eval-ns/op, scan-ns/op, and router-ns/op.
func WithAttribution(a *Attribution) Option { return func(c *config) { c.attr = a } }

// Parser parses sentences of one grammar on one backend.
type Parser struct {
	g   *cdg.Grammar
	cfg config
}

// NewParser builds a parser for g. The default configuration is the
// paper's: the MasPar backend with 16,384 physical PEs and filtering to
// fixpoint.
func NewParser(g *cdg.Grammar, opts ...Option) *Parser {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &Parser{g: g, cfg: cfg}
}

// Grammar returns the parser's grammar.
func (p *Parser) Grammar() *cdg.Grammar { return p.g }

// Backend returns the configured machine model.
func (p *Parser) Backend() Backend { return p.cfg.backend }

// Result is the outcome of one parse on any backend.
type Result struct {
	// Backend that produced the result.
	Backend Backend
	// Network is the final constraint network.
	Network *cn.Network
	// Counters is the machine-work accounting.
	Counters *metrics.Counters
	// ModelTime is the simulated wall-clock time on the MasPar backend
	// (zero elsewhere; host time is what benches measure).
	ModelTime time.Duration
	// HostTime is the measured host execution time of the parse.
	HostTime time.Duration
}

// Accepted reports the paper's acceptance condition: every role of
// every word retains at least one role value.
func (r *Result) Accepted() bool { return r.Network.AllRolesAlive() }

// Ambiguous reports whether any role retains multiple role values.
func (r *Result) Ambiguous() bool { return r.Network.Ambiguous() }

// Parses extracts up to limit precedence graphs (limit <= 0: all).
func (r *Result) Parses(limit int) []*cn.Assignment { return r.Network.ExtractParses(limit) }

// Stats renders the work accounting.
func (r *Result) Stats() string {
	s := fmt.Sprintf("backend=%s %s", r.Backend, r.Counters)
	if r.ModelTime > 0 {
		s += fmt.Sprintf(" modelTime=%v", r.ModelTime)
	}
	return s
}

// Parse tokenizes words against the lexicon (first category wins on
// lexical ambiguity) and parses them.
func (p *Parser) Parse(words []string) (*Result, error) {
	return p.ParseContext(context.Background(), words)
}

// ParseContext is Parse with cancellation: the context is checked
// between constraint propagations and between consistency rounds, so a
// deadline stops a long parse mid-algorithm rather than after it
// completes. On cancellation it returns ctx.Err() (possibly wrapped).
func (p *Parser) ParseContext(ctx context.Context, words []string) (*Result, error) {
	sent, err := cdg.Resolve(p.g, words, nil)
	if err != nil {
		return nil, err
	}
	return p.ParseSentenceContext(ctx, sent)
}

// ParseSentence parses an already-resolved sentence.
func (p *Parser) ParseSentence(sent *cdg.Sentence) (*Result, error) {
	return p.ParseSentenceContext(context.Background(), sent)
}

// ParseSentenceContext is ParseSentence with cancellation (see
// ParseContext).
func (p *Parser) ParseSentenceContext(ctx context.Context, sent *cdg.Sentence) (*Result, error) {
	start := time.Now()
	res, err := p.parseSentence(ctx, sent)
	if err != nil {
		return nil, err
	}
	res.HostTime = time.Since(start)
	return res, nil
}

// ParseGangContext parses a batch of same-length sentences. On the
// MasPar backend they run as ONE gang program: every distinct sentence
// occupies its own segment of a single virtual PE array and one ACU
// instruction stream drives the whole gang, so machine setup and
// instruction dispatch are paid once per batch instead of once per
// sentence. Identical sentences (same words and categories, see
// sentenceKey) parse identically, so the gang runs each one once and a
// later twin gets a clone of its first twin's network and a copy of its
// counters — exactly what a segment of its own would compute, since the
// machine charges per segment. Each result's counters and ModelTime
// are attributed per sentence and are bit-identical to a solo run of
// that sentence (see runMasParGang); HostTime is the batch's wall
// clock split evenly across members. A solo MasPar parse is a gang of
// one. Other backends fall back to sequential solo parses. Like every
// parse, the gang runs on the caller's goroutine: host parallelism is
// the caller's to choose, as the serving pool does with one parse per
// worker.
//
// All sentences must have the same word count; mixed lengths are an
// error on the MasPar backend (the server's pool takes only jobs of one
// length into a gang).
func (p *Parser) ParseGangContext(ctx context.Context, sents []*cdg.Sentence) ([]*Result, error) {
	if len(sents) == 0 {
		return nil, nil
	}
	if p.cfg.backend != MasPar {
		out := make([]*Result, len(sents))
		for i, s := range sents {
			res, err := p.ParseSentenceContext(ctx, s)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	start := time.Now()
	m, err := maspar.New(p.cfg.phys, maspar.DefaultCosts())
	if err != nil {
		return nil, err
	}
	// seg[i] is the gang segment that parses sentence i: its first
	// twin's.
	seg := make([]int, len(sents))
	first := make(map[string]int, len(sents))
	var sps []*cdg.Space
	for i, s := range sents {
		k := sentenceKey(s)
		b, ok := first[k]
		if !ok {
			b = len(sps)
			first[k] = b
			sps = append(sps, cdg.NewSpace(p.g, s))
		}
		seg[i] = b
	}
	run, nws, err := runMasParGang(ctx, sps, m, p.cfg.consistencyPerConstraint, p.cfg.filter, p.cfg.maxFilterIters, p.cfg.attr)
	if err != nil {
		return nil, err
	}
	per := time.Since(start) / time.Duration(len(sents))
	taken := make([]bool, len(sps))
	out := make([]*Result, len(sents))
	for i, b := range seg {
		nw := nws[b]
		if taken[b] {
			nw = nw.Clone()
		}
		taken[b] = true
		c := run.countersFor(b)
		out[i] = &Result{
			Backend:   MasPar,
			Network:   nw,
			Counters:  c,
			ModelTime: maspar.CyclesToModelTime(c.Cycles),
			HostTime:  per,
		}
	}
	return out, nil
}

// sentenceKey is the identity ParseGangContext dedupes by: the words
// and resolved categories, which are everything a MasPar parse reads
// of a sentence.
func sentenceKey(s *cdg.Sentence) string {
	var sb strings.Builder
	for p := 1; p <= s.Len(); p++ {
		c, _ := s.Cat(p)
		sb.WriteString(s.Word(p))
		sb.WriteByte(0x1f)
		sb.WriteString(strconv.Itoa(int(c)))
		sb.WriteByte(0x1e)
	}
	return sb.String()
}

func (p *Parser) parseSentence(ctx context.Context, sent *cdg.Sentence) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch p.cfg.backend {
	case Serial:
		sres, err := serial.Parse(p.g, sent, serial.Options{
			Ctx:            ctx,
			Filter:         p.cfg.filter,
			MaxFilterIters: p.cfg.maxFilterIters,
		})
		if err != nil {
			return nil, err
		}
		return &Result{Backend: Serial, Network: sres.Network, Counters: sres.Counters}, nil

	case PRAM:
		pres, err := pram.Parse(p.g, sent, pram.Options{
			Ctx:            ctx,
			Policy:         pram.Common,
			Filter:         p.cfg.filter,
			MaxFilterIters: p.cfg.maxFilterIters,
		})
		if err != nil {
			return nil, err
		}
		return &Result{Backend: PRAM, Network: pres.Network, Counters: pres.Counters}, nil

	case Mesh:
		mres, err := meshcdg.Parse(p.g, sent, meshcdg.Options{
			Ctx:            ctx,
			Filter:         p.cfg.filter,
			MaxFilterIters: p.cfg.maxFilterIters,
		})
		if err != nil {
			return nil, err
		}
		return &Result{Backend: Mesh, Network: mres.Network, Counters: mres.Counters}, nil

	case MasPar:
		res, err := p.ParseGangContext(ctx, []*cdg.Sentence{sent})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	return nil, fmt.Errorf("core: unknown backend %d", p.cfg.backend)
}
