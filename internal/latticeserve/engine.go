// Package latticeserve is the incremental speech-lattice serving
// engine: it expands a word lattice into budgeted best-first candidate
// paths (internal/lattice.Expand) and parses each candidate by reusing
// constraint-network state shared with every previously parsed prefix.
//
// The core structure is a prefix-snapshot cache keyed by
// (grammar key, path prefix). A snapshot is the *propagated* network of
// a prefix — all unary and binary constraints applied, no filtering
// (see snapshot.go for why filtered state must never be reused) — so
// extending an utterance by one slot pays only for the values the new
// word introduces: O(n³) fresh constraint checks instead of the O(n⁴)
// of a from-scratch propagation. The n-best paths of one lattice share
// long prefixes by construction, and the streaming endpoint re-decodes
// a growing lattice after every appended slot, so both workloads hit
// the same snapshots. The sentence-keyed result cache (internal/server)
// can do neither: it only recognizes exact whole-sentence repeats.
//
// Grammars whose constraints reference absolute word positions are not
// extension-stable (cdg.Grammar.ExtensionStable); their paths fall back
// to a from-scratch serial parse per candidate.
package latticeserve

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/lattice"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/serial"
)

// DefaultPrefixEntries is the prefix-snapshot LRU capacity when
// Config.PrefixEntries is zero. Snapshots hold full arc matrices, so
// the cap bounds memory, not correctness.
const DefaultPrefixEntries = 512

// Config tunes an Engine.
type Config struct {
	// PrefixEntries caps the prefix-snapshot LRU (0: default 512;
	// negative: disable snapshot reuse entirely).
	PrefixEntries int
}

// Engine owns the prefix-snapshot cache. It is safe for concurrent use.
type Engine struct {
	// mu guards prefixes, the LRU of prefix snapshots keyed by
	// prefixKey (nil when reuse is disabled). A snapshot is a pure
	// function of (grammar, prefix words) — the propagated, unfiltered
	// network — so entries never go stale, and a racing duplicate
	// computation is harmless: both racers build identical state and
	// the second Add just refreshes the entry. Snapshots are immutable
	// once stored (finishing a path clones before filtering), so a hit
	// shares the pointer without copying.
	mu       sync.Mutex
	prefixes *lru.Cache[string, *snapshot]

	hits      atomic.Uint64 // prefix slots served from a cached snapshot
	misses    atomic.Uint64 // prefix snapshots computed
	evictions atomic.Uint64 // prefix snapshots evicted at capacity
	fallbacks atomic.Uint64 // paths parsed from scratch (unstable grammar)
}

// New builds an engine.
func New(cfg Config) *Engine {
	e := &Engine{}
	if cfg.PrefixEntries >= 0 {
		n := cfg.PrefixEntries
		if n == 0 {
			n = DefaultPrefixEntries
		}
		e.prefixes = lru.New[string, *snapshot](n)
	}
	return e
}

// CacheStats is a point-in-time snapshot of the prefix-cache counters.
type CacheStats struct {
	Hits      uint64 // slots whose snapshot was reused
	Misses    uint64 // snapshots computed
	Evictions uint64
	Fallbacks uint64 // paths served by the from-scratch fallback
	Entries   int
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() CacheStats {
	s := CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
		Fallbacks: e.fallbacks.Load(),
	}
	if e.prefixes != nil {
		e.mu.Lock()
		s.Entries = e.prefixes.Len()
		e.mu.Unlock()
	}
	return s
}

// Request carries the per-call parameters shared by ParsePathContext
// and DecodeContext.
type Request struct {
	Grammar *cdg.Grammar
	// GrammarKey is the canonical grammar identity (server key.go);
	// it namespaces the prefix cache.
	GrammarKey string
	// MaxParses bounds parse extraction per path (<= 0: all).
	MaxParses int
	// MaxPaths bounds candidate expansion per lattice
	// (<= 0: lattice.DefaultMaxPaths).
	MaxPaths int
	// NoCache bypasses the prefix cache entirely (no reads, no writes).
	NoCache bool
}

// PathResult is the verdict of one candidate path.
type PathResult struct {
	Words     []string
	Accepted  bool // the grammar admits at least one complete parse
	Ambiguous bool
	Parses    []*cn.Assignment
	// Counters records the work THIS call performed: snapshot
	// extensions actually computed plus the final filtering pass.
	// Slots served from the prefix cache contribute nothing.
	Counters *metrics.Counters
	// ReusedSlots is how many leading slots were served from cached
	// snapshots; BuiltSlots is how many had to be computed.
	ReusedSlots int
	BuiltSlots  int
	// Network is the filtered constraint network of the path.
	Network *cn.Network
}

// cached returns the snapshot stored under key, marking it recently
// used.
func (e *Engine) cached(key string) (*snapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prefixes.Get(key)
}

// store adds a snapshot under key and counts what that evicted.
func (e *Engine) store(key string, snap *snapshot) {
	e.mu.Lock()
	evicted := e.prefixes.Add(key, snap)
	e.mu.Unlock()
	e.evictions.Add(uint64(evicted))
}

func prefixKey(grammarKey string, words []string) string {
	return grammarKey + "\x1f" + strings.Join(words, "\x1f")
}

// ParsePathContext parses one word sequence, reusing the longest
// cached prefix snapshot and extending it slot by slot. Out-of-lexicon
// words surface as the error cdg.Resolve reports; lattice-level
// callers treat that as a rejected hypothesis (DecodeContext).
func (e *Engine) ParsePathContext(ctx context.Context, req Request, words []string) (*PathResult, error) {
	if len(words) == 0 {
		return nil, errors.New("latticeserve: empty path")
	}
	g := req.Grammar
	if !g.ExtensionStable() {
		return e.parseFromScratch(ctx, req, words)
	}

	useCache := e.prefixes != nil && !req.NoCache
	var snap *snapshot
	reused := 0
	if useCache {
		for i := len(words); i >= 1; i-- {
			if s, ok := e.cached(prefixKey(req.GrammarKey, words[:i])); ok {
				snap, reused = s, i
				break
			}
		}
		e.hits.Add(uint64(reused))
	}
	counters := &metrics.Counters{}
	built := 0
	for i := reused; i < len(words); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next *snapshot
		var err error
		if snap == nil {
			next, err = buildBase(g, words[:1])
		} else {
			next, err = extendSnapshot(g, snap, words[i])
		}
		if err != nil {
			return nil, err
		}
		built++
		counters.Add(next.nw.Counters)
		if useCache {
			e.store(prefixKey(req.GrammarKey, words[:i+1]), next)
		}
		snap = next
	}
	e.misses.Add(uint64(built))

	// Finish the path on a clone: snapshots stay unfiltered forever.
	nw := snap.nw.Clone()
	if _, err := nw.FilterCtx(ctx, 0); err != nil {
		return nil, err
	}
	parses := nw.ExtractParses(req.MaxParses)
	counters.Add(nw.Counters)
	return &PathResult{
		Words:       append([]string(nil), words...),
		Accepted:    len(parses) > 0,
		Ambiguous:   nw.Ambiguous(),
		Parses:      parses,
		Counters:    counters,
		ReusedSlots: reused,
		BuiltSlots:  built,
		Network:     nw,
	}, nil
}

// parseFromScratch serves extension-unstable grammars: every path is a
// full serial parse; nothing is cached because its intermediate state
// is not reusable.
func (e *Engine) parseFromScratch(ctx context.Context, req Request, words []string) (*PathResult, error) {
	e.fallbacks.Add(1)
	g := req.Grammar
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		return nil, err
	}
	opt := serial.DefaultOptions()
	opt.Ctx = ctx
	res, err := serial.Parse(g, sent, opt)
	if err != nil {
		return nil, err
	}
	parses := res.Network.ExtractParses(req.MaxParses)
	return &PathResult{
		Words:      append([]string(nil), words...),
		Accepted:   len(parses) > 0,
		Ambiguous:  res.Ambiguous(),
		Parses:     parses,
		Counters:   res.Counters,
		BuiltSlots: len(words),
		Network:    res.Network,
	}, nil
}

// Hypothesis is one expanded candidate with its verdict.
type Hypothesis struct {
	Words     []string
	Score     float64
	Accepted  bool
	Ambiguous bool
	Parses    []*cn.Assignment
	Counters  *metrics.Counters
	// ReusedSlots counts the leading slots served from the prefix
	// cache for this candidate.
	ReusedSlots int
	// Unknown names an out-of-lexicon word that rejected the path
	// without parsing ("" when every word resolved).
	Unknown string
}

// Outcome is the result of decoding one lattice.
type Outcome struct {
	// Hypotheses lists every expanded candidate with its verdict,
	// accepted first, then score descending, ties broken by the word
	// sequence — fully deterministic.
	Hypotheses []Hypothesis
	Expanded   int
	Truncated  bool
	Accepted   int
	// PrefixHits / PrefixMisses are this request's slot-reuse deltas
	// (the engine-wide totals live in Stats).
	PrefixHits   int
	PrefixMisses int
}

// DecodeContext expands the lattice best-first within the path budget
// and parses every candidate through the prefix-reuse path. Candidates
// are parsed in expansion order, so the n-best paths of one lattice
// warm the snapshots their siblings reuse.
func (e *Engine) DecodeContext(ctx context.Context, req Request, l *lattice.Lattice) (*Outcome, error) {
	if l.Slots() == 0 {
		return nil, errors.New("latticeserve: empty lattice")
	}
	paths, truncated := l.Expand(req.MaxPaths)
	out := &Outcome{Expanded: len(paths), Truncated: truncated}
	for _, p := range paths {
		if w, bad := unknownWord(req.Grammar, p.Words); bad {
			out.Hypotheses = append(out.Hypotheses, Hypothesis{Words: p.Words, Score: p.Score, Unknown: w})
			continue
		}
		pr, err := e.ParsePathContext(ctx, req, p.Words)
		if err != nil {
			return nil, err
		}
		out.PrefixHits += pr.ReusedSlots
		out.PrefixMisses += pr.BuiltSlots
		if pr.Accepted {
			out.Accepted++
		}
		out.Hypotheses = append(out.Hypotheses, Hypothesis{
			Words:       p.Words,
			Score:       p.Score,
			Accepted:    pr.Accepted,
			Ambiguous:   pr.Ambiguous,
			Parses:      pr.Parses,
			Counters:    pr.Counters,
			ReusedSlots: pr.ReusedSlots,
		})
	}
	sort.SliceStable(out.Hypotheses, func(i, j int) bool {
		a, b := &out.Hypotheses[i], &out.Hypotheses[j]
		if a.Accepted != b.Accepted {
			return a.Accepted
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return wordsLess(a.Words, b.Words)
	})
	return out, nil
}

func unknownWord(g *cdg.Grammar, words []string) (string, bool) {
	for _, w := range words {
		if len(g.LookupWord(w)) == 0 {
			return w, true
		}
	}
	return "", false
}

func wordsLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
