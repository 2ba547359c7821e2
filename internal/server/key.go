package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// This file is the single source of truth for request canonicalization:
// the grammar key, the pool's batching key (cfgKey), and the
// result-cache key are all derived here, and both the server's request
// path (serve) and the sharding router (internal/router) call these
// functions. The router rendezvous-hashes CacheKey to pick a shard, so
// any drift between the router's notion of a request's identity and the
// server's would silently destroy cache affinity — FuzzCacheKey pins
// the two together byte-for-byte.

// GrammarKey resolves the grammar cache key of a request without
// compiling anything: inline sources hash to their SourceKey, names
// pass through, and an empty request defaults to "demo" — exactly the
// key Cache.Get returns for the same request.
func GrammarKey(req ParseRequest) string {
	if req.GrammarSource != "" {
		return SourceKey(req.GrammarSource)
	}
	if req.Grammar == "" {
		return "demo"
	}
	return req.Grammar
}

// cfgKeyOf is the pool's batching key: the grammar key plus every
// option that changes what the simulator computes.
func cfgKeyOf(grammarKey string, backend core.Backend, req ParseRequest) string {
	return fmt.Sprintf("%s|%s|filter=%v|iters=%d|pes=%d",
		grammarKey, backend, !req.NoFilter, req.MaxFilterIters, req.PEs)
}

// cacheKeyOf extends a cfgKey with everything else the response bytes
// depend on: the sentence itself and the parse-rendering bound.
func cacheKeyOf(cfgKey string, maxParses int, words []string) string {
	if maxParses == 0 {
		maxParses = DefaultMaxParses
	}
	return fmt.Sprintf("%s|maxparses=%d|%s", cfgKey, maxParses, strings.Join(words, "\x1f"))
}

// CacheKey returns the canonical result-cache identity of a request —
// the exact key the server's do path memoizes under. The error mirrors
// request validation: an unknown backend name (the only field CacheKey
// must canonicalize through a lookup) is rejected just as the server
// would reject it with a 400.
func CacheKey(req ParseRequest) (string, error) {
	backend, err := ParseBackend(req.Backend)
	if err != nil {
		return "", err
	}
	return cacheKeyOf(cfgKeyOf(GrammarKey(req), backend, req), req.MaxParses, req.Words()), nil
}

// LatticeAffinityKey is the canonical routing identity of a lattice
// request. The router rendezvous-hashes it to pick a shard, so every
// request of one utterance — each streamed slot, each re-decode of a
// grown lattice — must derive the same key and land on the shard that
// holds its prefix snapshots. Utterance-scoped requests key on
// (grammar, utterance_id); anonymous ones fall back to the slot
// contents, which still keeps exact re-submissions shard-local.
func LatticeAffinityKey(req LatticeRequest) string {
	gkey := GrammarKey(ParseRequest{Grammar: req.Grammar, GrammarSource: req.GrammarSource})
	if req.UtteranceID != "" {
		return "lattice|" + gkey + "|uid|" + req.UtteranceID
	}
	var sb strings.Builder
	sb.WriteString("lattice|")
	sb.WriteString(gkey)
	sb.WriteString("|slots")
	for _, slot := range req.Slots {
		sb.WriteByte('|')
		for i, a := range slot {
			if i > 0 {
				sb.WriteByte('\x1e')
			}
			sb.WriteString(a.Word)
			sb.WriteByte('\x1f')
			// Negative zero formats as "-0" but is dropped by omitempty
			// on re-encode, so a proxy round-trip would move the key;
			// fold it into +0 before formatting.
			score := a.Score
			if score == 0 {
				score = 0
			}
			sb.WriteString(strconv.FormatFloat(score, 'g', -1, 64))
		}
	}
	return sb.String()
}
