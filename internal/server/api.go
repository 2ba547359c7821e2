// Package server implements parsecd's HTTP/JSON parse service over the
// PARSEC backends: a compiled-grammar cache, a bounded worker pool with
// per-backend queues, whose free MasPar workers take the queued jobs of
// one configuration and sentence length and parse them back to back,
// and Prometheus text metrics. cmd/parsecd wires it to a listener and signals;
// cmd/parsec reuses the wire types so CLI and service output are
// diffable.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cn"
	"repro/internal/core"
	"repro/internal/metrics"
)

// ParseRequest is the body of POST /v1/parse and each element of a
// batch request.
type ParseRequest struct {
	// Grammar names a built-in grammar (demo, english, ww, dyck, anbn,
	// chain, crossserial). Ignored when GrammarSource is set. Defaults
	// to "demo".
	Grammar string `json:"grammar,omitempty"`
	// GrammarSource is an inline s-expression grammar; it is compiled
	// once and cached under its content hash.
	GrammarSource string `json:"grammar_source,omitempty"`
	// Backend selects the machine model: serial|pram|maspar|mesh
	// (default maspar).
	Backend string `json:"backend,omitempty"`
	// Sentence is the tokenized input. Text is the untokenized
	// alternative (split on whitespace); exactly one must be non-empty.
	Sentence []string `json:"sentence,omitempty"`
	Text     string   `json:"text,omitempty"`
	// TimeoutMS bounds the request (queue wait + parse). 0 uses the
	// server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxParses bounds the precedence graphs rendered in the response
	// (0: server default of 10, -1: all).
	MaxParses int `json:"max_parses,omitempty"`
	// NoFilter skips the filtering phase; MaxFilterIters bounds it
	// (0: fixpoint).
	NoFilter       bool `json:"no_filter,omitempty"`
	MaxFilterIters int  `json:"max_filter_iters,omitempty"`
	// PEs overrides the simulated physical PE count (maspar backend).
	PEs int `json:"pes,omitempty"`
	// NoCache bypasses the server's result cache for this request: the
	// parse always executes, and its result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// Words returns the tokenized sentence, preferring Sentence over Text.
func (r *ParseRequest) Words() []string {
	if len(r.Sentence) > 0 {
		return r.Sentence
	}
	return strings.Fields(r.Text)
}

// ParseResult is the result schema shared by the service and the CLI's
// -json mode: POST /v1/parse returns one, POST /v1/batch returns a list,
// and `parsec -json` emits the identical structure, so the two are
// diffable (modulo the timing and batching fields, which necessarily
// vary run to run).
type ParseResult struct {
	Sentence  []string          `json:"sentence"`
	Grammar   string            `json:"grammar"`
	Backend   string            `json:"backend"`
	Accepted  bool              `json:"accepted"`
	Ambiguous bool              `json:"ambiguous"`
	NumParses int               `json:"num_parses"`
	Parses    []string          `json:"parses,omitempty"`
	Counters  *metrics.Counters `json:"counters,omitempty"`
	// ModelTimeUS is the simulated MP-1 wall clock in microseconds
	// (maspar backend only).
	ModelTimeUS int64 `json:"model_time_us,omitempty"`
	// HostTimeUS is the measured parse time in microseconds.
	HostTimeUS int64 `json:"host_time_us,omitempty"`
	// QueueTimeUS and BatchSize are service-side observability extras:
	// time spent queued before a worker picked the request up, and the
	// size of the coalesced batch it ran in. Absent in CLI output.
	QueueTimeUS int64 `json:"queue_time_us,omitempty"`
	BatchSize   int   `json:"batch_size,omitempty"`
	// Cached marks a result served from the server's result cache
	// (its timing/batching extras are zeroed: no parse ran).
	Cached bool `json:"cached,omitempty"`
	// TimedOut marks a deadline-exceeded request; Error carries any
	// failure message. HTTP maps these to 504 and 500.
	TimedOut bool   `json:"timed_out,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []ParseRequest `json:"requests"`
}

// BatchResult is the response of POST /v1/batch; Results[i] corresponds
// to Requests[i].
type BatchResult struct {
	Results []ParseResult `json:"results"`
}

// WriteBatch writes a /v1/batch answer's body from the compact
// encoding of each of its results, byte for byte what json.Encoder
// writes for the BatchResult they encode. It splices the entries
// without decoding or re-encoding them.
func WriteBatch(w io.Writer, entries []json.RawMessage) error {
	const head, tail = `{"results":[`, "]}\n"
	n := len(head) + len(entries) + len(tail)
	for _, e := range entries {
		n += len(e)
	}
	buf := append(make([]byte, 0, n), head...)
	for i, e := range entries {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, e...)
	}
	_, err := w.Write(append(buf, tail...))
	return err
}

// DefaultMaxParses bounds rendered precedence graphs when a request
// leaves MaxParses zero.
const DefaultMaxParses = 10

// ShardHeader is the response header naming the parsecd node that
// produced a response. A server with Config.ShardName set emits it on
// every response; the sharding router forwards it (filling in the
// shard URL when the backend is anonymous) so load generators can
// attribute per-shard traffic.
const ShardHeader = "X-Parsec-Shard"

// CacheHeader is set to "hit" on a /v1/parse answer that is the result
// cache's stored bytes: a hit, or a request that waited on an identical
// in-flight parse. Such a body is the same on every shard for one
// CacheKey, so the sharding router may keep it and answer repeats
// itself.
const CacheHeader = "X-Parsec-Cache"

// ClassHeader is the request header naming the admission class of a
// request: "interactive" (default for /v1/parse and lattice calls) or
// "bulk" (default for /v1/batch). The router sheds bulk traffic first
// under overload and marks every forward it makes; servers give bulk
// submissions less queue headroom so interactive parses still land
// while a bulk ramp is saturating the pool.
const ClassHeader = "X-Parsec-Class"

// BulkRequest reports whether r is of the bulk class: an explicit
// ClassHeader wins, otherwise /v1/batch is bulk and every other route
// interactive.
func BulkRequest(r *http.Request) bool {
	switch r.Header.Get(ClassHeader) {
	case "bulk":
		return true
	case "interactive":
		return false
	}
	return r.URL.Path == "/v1/batch"
}

// BulkLimit is how much of a capacity bulk-class traffic may fill: a
// quarter of it, at least one slot, is kept for interactive traffic,
// and bulk keeps at least one slot, so bulk sheds strictly before
// interactive. The router applies it to each shard's in-flight cap and
// the pool to each backend's queue depth.
func BulkLimit(capacity int) int {
	return max(capacity-max(capacity/4, 1), 1)
}

// NewResult renders a finished parse into the shared wire schema.
// maxParses follows the ParseRequest convention (0: default, -1: all).
func NewResult(words []string, grammarKey, backend string, res *core.Result, maxParses int) ParseResult {
	if maxParses == 0 {
		maxParses = DefaultMaxParses
	}
	if maxParses < 0 {
		maxParses = 0 // cn: extract all
	}
	parses := res.Parses(maxParses)
	rendered := make([]string, len(parses))
	for i, a := range parses {
		rendered[i] = cn.RenderPrecedenceGraph(a)
	}
	return ParseResult{
		Sentence:    words,
		Grammar:     grammarKey,
		Backend:     backend,
		Accepted:    res.Accepted(),
		Ambiguous:   res.Ambiguous(),
		NumParses:   len(parses),
		Parses:      rendered,
		Counters:    res.Counters,
		ModelTimeUS: res.ModelTime.Microseconds(),
		HostTimeUS:  res.HostTime.Microseconds(),
	}
}

// ParseBackend maps the wire name of a machine model to core.Backend;
// empty defaults to maspar.
func ParseBackend(name string) (core.Backend, error) {
	if name == "" {
		return core.MasPar, nil
	}
	return core.ParseBackend(name)
}

// durationUS converts to whole microseconds, rounding up so a non-zero
// wait is never reported as zero.
func durationUS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	us := d.Microseconds()
	if us == 0 {
		return 1
	}
	return us
}
