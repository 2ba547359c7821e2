package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/lattice"
	"repro/internal/latticeserve"
	"repro/internal/metrics"
	"repro/internal/workload"
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
	// MaxPaths bounds candidate expansion (0: server default; the
	// server's -lattice-max-paths is always the ceiling).
	MaxPaths int `json:"max_paths,omitempty"`
	// MaxParses bounds parse rendering per hypothesis (0: server
	// default of 10, -1: all).
	MaxParses int `json:"max_parses,omitempty"`
	// TimeoutMS bounds the request (0: server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the prefix-snapshot cache.
	NoCache bool `json:"no_cache,omitempty"`
}

// EnglishLatticeBody returns the JSON body of the load tools' lattice
// request for utterance uidx: the English grammar, variant uidx of
// workload.EnglishLattice with slots × alts words, each slot's
// alternatives scored 0.9, 0.75, 0.6, … in n-best order, utterance id
// idPrefix followed by uidx, one parse, and the given timeout and
// no_cache. parsecload's -lattice mode and the fleet benchmark's
// lattice mix both send it.
func EnglishLatticeBody(slots, alts, uidx int, idPrefix string, timeoutMS int, noCache bool) ([]byte, error) {
	grid := workload.EnglishLattice(slots, alts, uint64(uidx))
	ls := make([][]LatticeAlt, len(grid))
	for s, words := range grid {
		row := make([]LatticeAlt, len(words))
		for j, w := range words {
			row[j] = LatticeAlt{Word: w, Score: 0.9 - 0.15*float64(j)}
		}
		ls[s] = row
	}
	return json.Marshal(LatticeRequest{
		Grammar:     "english",
		UtteranceID: idPrefix + strconv.Itoa(uidx),
		Slots:       ls,
		MaxParses:   1,
		TimeoutMS:   timeoutMS,
		NoCache:     noCache,
	})
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
	// ReusedSlots counts leading slots served from the prefix cache.
	ReusedSlots int `json:"reused_slots,omitempty"`
	// Unknown names an out-of-lexicon word that rejected the path
	// without parsing.
	Unknown string `json:"unknown_word,omitempty"`
}

// LatticeResult is the response of POST /v1/lattice and the per-update
// payload of the streaming variant.
type LatticeResult struct {
	Grammar     string `json:"grammar"`
	UtteranceID string `json:"utterance_id,omitempty"`
	Slots       int    `json:"slots"`
	// Paths is the raw cartesian path count; Expanded is how many
	// candidates were actually generated within the budget.
	Paths      int                 `json:"paths"`
	Expanded   int                 `json:"expanded"`
	Truncated  bool                `json:"truncated,omitempty"`
	Accepted   int                 `json:"accepted"`
	Hypotheses []LatticeHypothesis `json:"hypotheses"`
	// PrefixHits / PrefixMisses are this request's prefix-snapshot
	// reuse counts.
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
		Slots:       len(req.Slots),
		TimedOut:    timedOut,
		Error:       msg,
	}
}

// buildLattice validates the wire slots and assembles the lattice.
func buildLattice(slots [][]LatticeAlt) (*lattice.Lattice, error) {
	if len(slots) == 0 {
		return nil, errors.New("empty lattice: set \"slots\"")
	}
	l := lattice.New()
	for _, slot := range slots {
		if err := addSlot(l, slot); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// addSlot validates one wire slot — it needs an alternative, and every
// alternative a word — and appends it to l. /v1/lattice and the stream
// both convert their slots here.
func addSlot(l *lattice.Lattice, slot []LatticeAlt) error {
	if len(slot) == 0 {
		return errors.New("lattice slot needs at least one alternative")
	}
	alts := make([]lattice.Alt, len(slot))
	for j, a := range slot {
		if a.Word == "" {
			return errors.New("lattice alternative needs a \"word\"")
		}
		alts[j] = lattice.Alt{Word: a.Word, Score: a.Score}
	}
	return l.AddSlot(alts...)
}

// latticeMaxPaths clamps a request's candidate budget to the server's
// ceiling; 0 or less asks for the ceiling.
func (s *Server) latticeMaxPaths(n int) int {
	if n <= 0 || n > s.cfg.LatticeMaxPaths {
		return s.cfg.LatticeMaxPaths
	}
	return n
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
	g, key, status, err := s.lookupGrammar(req.Grammar, req.GrammarSource)
	if err != nil {
		return latticeErr(req, err.Error(), false), status
	}
	jctx, cancel := context.WithTimeout(ctx, s.requestTimeout(req.TimeoutMS))
	defer cancel()

	start := time.Now()
	res := LatticeResult{
		Grammar:     key,
		UtteranceID: req.UtteranceID,
		Slots:       l.Slots(),
		Paths:       l.Paths(),
	}
	status = s.latticeViaPrefix(jctx, req, g, key, l, s.latticeMaxPaths(req.MaxPaths), &res)
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
