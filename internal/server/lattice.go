package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"time"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/lattice"
	"repro/internal/latticeserve"
	"repro/internal/metrics"
)

// LatticeAlt is one recognizer alternative of a lattice slot.
type LatticeAlt struct {
	Word  string  `json:"word"`
	Score float64 `json:"score,omitempty"`
}

// LatticeRequest is the body of POST /v1/lattice and the header line
// of POST /v1/lattice/stream (where Slots carries any slots known up
// front and further slots arrive as NDJSON lines).
type LatticeRequest struct {
	// Grammar / GrammarSource select the grammar exactly as in
	// ParseRequest.
	Grammar       string `json:"grammar,omitempty"`
	GrammarSource string `json:"grammar_source,omitempty"`
	// UtteranceID names the utterance. The sharding router keys
	// affinity on it, so every request of one utterance lands on the
	// shard holding its prefix snapshots.
	UtteranceID string `json:"utterance_id,omitempty"`
	// Slots is the word lattice: one list of alternatives per slot.
	Slots [][]LatticeAlt `json:"slots,omitempty"`
	// Engine selects how candidates are parsed: "prefix" (default)
	// uses the incremental prefix-reuse engine; "pool" submits each
	// candidate through the batching worker pool (any Backend, result
	// cache included) — the cross-check path.
	Engine string `json:"engine,omitempty"`
	// Backend applies to the pool engine only (default maspar).
	Backend string `json:"backend,omitempty"`
	// MaxPaths bounds candidate expansion (0: server default; the
	// server's -lattice-max-paths is always the ceiling).
	MaxPaths int `json:"max_paths,omitempty"`
	// MaxParses bounds parse rendering per hypothesis (0: server
	// default of 10, -1: all).
	MaxParses int `json:"max_parses,omitempty"`
	// TimeoutMS bounds the request (0: server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the prefix-snapshot cache (prefix engine) or
	// the result cache (pool engine).
	NoCache bool `json:"no_cache,omitempty"`
}

// LatticeHypothesis is one candidate path with its verdict.
type LatticeHypothesis struct {
	Words     []string          `json:"words"`
	Score     float64           `json:"score"`
	Accepted  bool              `json:"accepted"`
	Ambiguous bool              `json:"ambiguous,omitempty"`
	NumParses int               `json:"num_parses"`
	Parses    []string          `json:"parses,omitempty"`
	Counters  *metrics.Counters `json:"counters,omitempty"`
	// ReusedSlots counts leading slots served from the prefix cache
	// (prefix engine only).
	ReusedSlots int `json:"reused_slots,omitempty"`
	// Unknown names an out-of-lexicon word that rejected the path
	// without parsing.
	Unknown string `json:"unknown_word,omitempty"`
	// Error carries a per-candidate failure (pool engine).
	Error string `json:"error,omitempty"`
}

// LatticeResult is the response of POST /v1/lattice and the per-update
// payload of the streaming variant.
type LatticeResult struct {
	Grammar     string `json:"grammar"`
	UtteranceID string `json:"utterance_id,omitempty"`
	Engine      string `json:"engine"`
	Slots       int    `json:"slots"`
	// Paths is the raw cartesian path count; Expanded is how many
	// candidates were actually generated within the budget.
	Paths      int                 `json:"paths"`
	Expanded   int                 `json:"expanded"`
	Truncated  bool                `json:"truncated,omitempty"`
	Accepted   int                 `json:"accepted"`
	Hypotheses []LatticeHypothesis `json:"hypotheses"`
	// PrefixHits / PrefixMisses are this request's prefix-snapshot
	// reuse counts (prefix engine only).
	PrefixHits   int    `json:"prefix_hits"`
	PrefixMisses int    `json:"prefix_misses"`
	HostTimeUS   int64  `json:"host_time_us,omitempty"`
	TimedOut     bool   `json:"timed_out,omitempty"`
	Error        string `json:"error,omitempty"`
}

func latticeErr(req LatticeRequest, msg string, timedOut bool) LatticeResult {
	return LatticeResult{
		Grammar:     req.Grammar,
		UtteranceID: req.UtteranceID,
		Engine:      latticeEngineName(req.Engine),
		Slots:       len(req.Slots),
		TimedOut:    timedOut,
		Error:       msg,
	}
}

func latticeEngineName(e string) string {
	if e == "" {
		return "prefix"
	}
	return e
}

// buildLattice validates the wire slots and assembles the lattice.
func buildLattice(slots [][]LatticeAlt) (*lattice.Lattice, error) {
	if len(slots) == 0 {
		return nil, errors.New("empty lattice: set \"slots\"")
	}
	l := lattice.New()
	for _, slot := range slots {
		if len(slot) == 0 {
			return nil, errors.New("lattice slot needs at least one alternative")
		}
		alts := make([]lattice.Alt, len(slot))
		for j, a := range slot {
			if a.Word == "" {
				return nil, errors.New("lattice alternative needs a \"word\"")
			}
			alts[j] = lattice.Alt{Word: a.Word, Score: a.Score}
		}
		if err := l.AddSlot(alts...); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// acquireLattice bounds concurrent lattice decodes: at most Workers
// run at once, at most QueueDepth wait, beyond that 429 — mirroring
// the parse pool's admission behavior for the lattice path, which
// executes on the handler goroutine rather than the worker pool.
func (s *Server) acquireLattice(ctx context.Context) (func(), int) {
	if s.latticeQueued.Add(1) > int64(s.cfg.QueueDepth) {
		s.latticeQueued.Add(-1)
		s.m.rejected.Add(1)
		return nil, http.StatusTooManyRequests
	}
	select {
	case s.latticeGate <- struct{}{}:
		s.latticeQueued.Add(-1)
		return func() { <-s.latticeGate }, 0
	case <-ctx.Done():
		s.latticeQueued.Add(-1)
		s.m.timeouts.Add(1)
		return nil, http.StatusGatewayTimeout
	}
}

// doLattice runs one whole-lattice request end to end.
func (s *Server) doLattice(ctx context.Context, req LatticeRequest) (LatticeResult, int) {
	l, err := buildLattice(req.Slots)
	if err != nil {
		return latticeErr(req, err.Error(), false), http.StatusBadRequest
	}
	engine := latticeEngineName(req.Engine)
	if engine != "prefix" && engine != "pool" {
		return latticeErr(req, "unknown engine \""+req.Engine+"\" (prefix|pool)", false), http.StatusBadRequest
	}
	if engine == "pool" {
		if _, err := ParseBackend(req.Backend); err != nil {
			return latticeErr(req, err.Error(), false), http.StatusBadRequest
		}
	}
	g, key, err := s.cache.Get(req.Grammar, req.GrammarSource)
	if err != nil {
		status := http.StatusBadRequest
		if req.GrammarSource == "" {
			status = http.StatusNotFound
		}
		return latticeErr(req, err.Error(), false), status
	}

	maxPaths := req.MaxPaths
	if maxPaths <= 0 || maxPaths > s.cfg.LatticeMaxPaths {
		maxPaths = s.cfg.LatticeMaxPaths
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	jctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	start := time.Now()
	res := LatticeResult{
		Grammar:     key,
		UtteranceID: req.UtteranceID,
		Engine:      engine,
		Slots:       l.Slots(),
		Paths:       l.Paths(),
	}
	var status int
	if engine == "pool" {
		status = s.latticeViaPool(jctx, req, g, l, maxPaths, &res)
	} else {
		status = s.latticeViaPrefix(jctx, req, g, key, l, maxPaths, &res)
	}
	if status == http.StatusOK {
		res.HostTimeUS = durationUS(time.Since(start))
		s.m.latticeRequests.Add(1)
		s.m.latticePaths.Add(uint64(res.Expanded))
		if res.Truncated {
			s.m.latticeTruncations.Add(1)
		}
	}
	return res, status
}

// latticeViaPrefix decodes through the incremental prefix-reuse engine
// behind the lattice admission gate.
func (s *Server) latticeViaPrefix(ctx context.Context, req LatticeRequest, g *cdg.Grammar, key string, l *lattice.Lattice, maxPaths int, res *LatticeResult) int {
	release, st := s.acquireLattice(ctx)
	if st != 0 {
		res.TimedOut = st == http.StatusGatewayTimeout
		res.Error = "lattice decode admission failed"
		return st
	}
	out, err := s.lattice.DecodeContext(ctx, latticeserve.Request{
		Grammar:    g,
		GrammarKey: key,
		MaxParses:  latticeMaxParses(req.MaxParses),
		MaxPaths:   maxPaths,
		NoCache:    req.NoCache,
	}, l)
	release()
	if err != nil {
		if ctx.Err() != nil {
			s.m.timeouts.Add(1)
			res.TimedOut = true
			res.Error = ctx.Err().Error()
			return http.StatusGatewayTimeout
		}
		res.Error = err.Error()
		return http.StatusInternalServerError
	}
	res.Expanded, res.Truncated = out.Expanded, out.Truncated
	res.Accepted = out.Accepted
	res.PrefixHits, res.PrefixMisses = out.PrefixHits, out.PrefixMisses
	res.Hypotheses = make([]LatticeHypothesis, len(out.Hypotheses))
	for i, h := range out.Hypotheses {
		res.Hypotheses[i] = LatticeHypothesis{
			Words:       h.Words,
			Score:       h.Score,
			Accepted:    h.Accepted,
			Ambiguous:   h.Ambiguous,
			NumParses:   len(h.Parses),
			Parses:      renderParses(h.Parses),
			Counters:    h.Counters,
			ReusedSlots: h.ReusedSlots,
			Unknown:     h.Unknown,
		}
	}
	return http.StatusOK
}

// latticeViaPool parses every expanded candidate as an ordinary parse
// job through the worker pool — the candidates go in as one unit, so
// same-length candidates gang onto one PE array, and the result cache
// elides repeats. It exists as the cross-check and any-backend path;
// the prefix engine is the incremental default.
func (s *Server) latticeViaPool(ctx context.Context, req LatticeRequest, g *cdg.Grammar, l *lattice.Lattice, maxPaths int, res *LatticeResult) int {
	paths, truncated := l.Expand(maxPaths)
	res.Expanded, res.Truncated = len(paths), truncated
	hyps := make([]LatticeHypothesis, len(paths))
	var reqs []ParseRequest
	var at []int
	for i, p := range paths {
		hyps[i] = LatticeHypothesis{Words: p.Words, Score: p.Score}
		if w, bad := latticeUnknownWord(g, p.Words); bad {
			hyps[i].Unknown = w
			continue
		}
		reqs = append(reqs, ParseRequest{
			Grammar:       req.Grammar,
			GrammarSource: req.GrammarSource,
			Backend:       req.Backend,
			Sentence:      p.Words,
			MaxParses:     req.MaxParses,
			NoCache:       req.NoCache,
		})
		at = append(at, i)
	}
	for k, jr := range s.serve(ctx, reqs, false) {
		h, pr := &hyps[at[k]], &jr.resp
		h.Accepted = pr.Accepted
		h.Ambiguous = pr.Ambiguous
		h.NumParses = pr.NumParses
		h.Parses = pr.Parses
		h.Counters = pr.Counters
		h.Error = pr.Error
	}
	if ctx.Err() != nil {
		res.TimedOut = true
		res.Error = ctx.Err().Error()
		return http.StatusGatewayTimeout
	}
	for i := range hyps {
		if hyps[i].Accepted {
			res.Accepted++
		}
	}
	sortLatticeHyps(hyps)
	res.Hypotheses = hyps
	return http.StatusOK
}

func latticeUnknownWord(g *cdg.Grammar, words []string) (string, bool) {
	for _, w := range words {
		if len(g.LookupWord(w)) == 0 {
			return w, true
		}
	}
	return "", false
}

func latticeMaxParses(maxParses int) int {
	if maxParses == 0 {
		return DefaultMaxParses
	}
	if maxParses < 0 {
		return 0 // engine: extract all
	}
	return maxParses
}

func renderParses(as []*cn.Assignment) []string {
	if len(as) == 0 {
		return nil
	}
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = cn.RenderPrecedenceGraph(a)
	}
	return out
}

func sortLatticeHyps(hyps []LatticeHypothesis) {
	sort.SliceStable(hyps, func(i, j int) bool {
		a, b := &hyps[i], &hyps[j]
		if a.Accepted != b.Accepted {
			return a.Accepted
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return wordSliceLess(a.Words, b.Words)
	})
}

func wordSliceLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func (s *Server) handleLattice(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LatticeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, latticeErr(req, "malformed request: "+err.Error(), false))
		return
	}
	res, status := s.doLattice(r.Context(), req)
	s.writeJSON(w, status, res)
}
