package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
)

// resultCache memoizes successful ParseResults in front of the worker
// pool: an LRU bounded by entry count, and singleflight deduplication
// so N concurrent identical requests cost one parse. The key is the
// full request identity — the pool's cfgKey (grammar key, backend,
// filter/iters/PEs) plus the sentence and the response-shaping
// maxParses — so two requests share an entry only when their responses
// must be byte-identical. A parse is a pure function of that identity,
// so an entry never goes stale; capacity alone bounds memory.
//
// Only 200s are stored, each as the compact JSON encoding of its
// sanitized result, made once when the parse finishes: the volatile
// observability fields (HostTimeUS, QueueTimeUS, BatchSize) are zeroed
// and Cached is set, so every hit and every coalesced follower writes
// the same bytes without encoding anything (TestCachedResultByteIdentical).
type resultCache struct {
	mu sync.Mutex
	// Guarded by mu (contiguous block): the memoized 200s and the
	// in-flight table.
	entries *lru.Cache[string, []byte]
	flights map[string]*flight

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	coalesced atomic.Uint64 // waiters served by another request's in-flight parse
}

// flight is one in-progress parse other identical requests wait on.
// done is closed exactly once, after body/panicked are final.
type flight struct {
	done chan struct{}
	// body is the stored encoding of the leader's 200; nil when the
	// leader failed.
	body     []byte
	panicked any
}

// rcOutcome classifies how a request was answered through the cache.
type rcOutcome int

const (
	// rcMiss: the caller parses (it leads the flight, or the leader it
	// followed failed).
	rcMiss rcOutcome = iota
	// rcHit: served from the memo, no parse ran.
	rcHit
	// rcCoalesced: served by another request's in-flight parse.
	rcCoalesced
	// rcExpiredWait: the caller's context ended while waiting on an
	// in-flight parse; the caller answers with its own timeout
	// response.
	rcExpiredWait
)

// newResultCache builds a cache holding up to capacity entries.
// capacity must be positive (the server disables the cache by not
// constructing one).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		entries: lru.New[string, []byte](capacity),
		flights: make(map[string]*flight),
	}
}

// lookup answers key from the memo without opening a flight: the
// stored bytes of a hit, counted as one, or nil.
func (rc *resultCache) lookup(key string) []byte {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.getLocked(key)
}

// getLocked returns key's stored bytes and counts the hit, or returns
// nil. Caller holds mu.
func (rc *resultCache) getLocked(key string) []byte {
	body, ok := rc.entries.Get(key)
	if ok {
		rc.hits.Add(1)
	}
	return body
}

// claim looks key up without blocking. A memo entry answers at once
// with its stored bytes (f == nil). Otherwise the caller gets the key's
// flight: a parse already in progress to follow with wait (leads ==
// false), or a new one it now leads and must end with finish or
// abandon. Leading counts as a miss.
func (rc *resultCache) claim(key string) (body []byte, f *flight, leads bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if body := rc.getLocked(key); body != nil {
		return body, nil, false
	}
	if f, ok := rc.flights[key]; ok {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	rc.flights[key] = f
	rc.misses.Add(1)
	return nil, f, true
}

// finish ends the flight the caller leads with its parse's outcome: a
// 200 is encoded once and memoized, and every follower is released
// with those bytes.
func (rc *resultCache) finish(key string, f *flight, resp ParseResult, status int) {
	body := cachedBody(resp, status)
	rc.mu.Lock()
	delete(rc.flights, key)
	if body != nil {
		rc.insertLocked(key, body)
	}
	rc.mu.Unlock()
	f.body = body
	close(f.done)
}

// abandon ends the flight the caller leads with a panic, which every
// follower re-raises: identical requests see identical outcomes, and
// nothing wedges on the flight.
func (rc *resultCache) abandon(key string, f *flight, panicked any) {
	rc.mu.Lock()
	delete(rc.flights, key)
	rc.mu.Unlock()
	f.panicked = panicked
	close(f.done)
}

// wait follows a flight to its end, or until ctx ends (rcExpiredWait).
// A leader's 200 is the follower's answer: its stored bytes
// (rcCoalesced). A leader's failure — its deadline, a 500 — may be
// specific to that request, so it is not inherited: wait returns
// rcMiss, and the caller runs its own parse and offers the outcome to
// store.
func (rc *resultCache) wait(ctx context.Context, f *flight) ([]byte, rcOutcome) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, rcExpiredWait
	}
	if f.panicked != nil {
		panic(f.panicked)
	}
	if f.body != nil {
		rc.coalesced.Add(1)
		return f.body, rcCoalesced
	}
	rc.misses.Add(1)
	return nil, rcMiss
}

// store memoizes the outcome of a parse run outside any flight (a
// follower's own, after its leader failed) when it is a 200.
func (rc *resultCache) store(key string, resp ParseResult, status int) {
	body := cachedBody(resp, status)
	if body == nil {
		return
	}
	rc.mu.Lock()
	rc.insertLocked(key, body)
	rc.mu.Unlock()
}

// insertLocked stores one entry's bytes, evicting the least recently
// used entries to stay within capacity. A key already stored (a
// follower's own parse finished first) is refreshed. Caller holds mu.
func (rc *resultCache) insertLocked(key string, body []byte) {
	rc.evictions.Add(uint64(rc.entries.Add(key, body)))
}

// cachedBody is what the cache keeps of a parse's outcome: the compact
// encoding of a sanitized 200, nil for any other status.
func cachedBody(resp ParseResult, status int) []byte {
	if status != http.StatusOK {
		return nil
	}
	return encodeResult(sanitizeCached(resp))
}

// sanitizeCached zeroes the per-execution observability fields so every
// hit of an entry serves one stable byte sequence, and marks it cached.
func sanitizeCached(r ParseResult) ParseResult {
	r.HostTimeUS = 0
	r.QueueTimeUS = 0
	r.BatchSize = 0
	r.Cached = true
	return r
}

// encodeResult is r's compact JSON encoding, without the newline
// json.Encoder would add. ParseResult holds only strings, bools and
// integers, so encoding cannot fail.
func encodeResult(r ParseResult) []byte {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return body
}

// Len reports the current entry count (tests).
func (rc *resultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.entries.Len()
}

// rcStats is the counter snapshot threaded into /metrics and Stats.
type rcStats struct {
	Hits, Misses, Evictions, Coalesced uint64
}

func (rc *resultCache) stats() rcStats {
	if rc == nil {
		return rcStats{}
	}
	return rcStats{
		Hits:      rc.hits.Load(),
		Misses:    rc.misses.Load(),
		Evictions: rc.evictions.Load(),
		Coalesced: rc.coalesced.Load(),
	}
}
