package server

import (
	"container/list"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// resultCache memoizes successful ParseResults in front of the worker
// pool: an LRU bounded by entry count, a TTL bounding staleness, and
// singleflight deduplication so N concurrent identical requests cost
// one parse. The key is the full request identity — the pool's cfgKey
// (grammar key, backend, filter/iters/PEs) plus the sentence and the
// response-shaping maxParses — so two requests share an entry only
// when their responses must be byte-identical.
//
// Only 200s are stored, and stored values are sanitized: the volatile
// observability fields (HostTimeUS, QueueTimeUS, BatchSize) are zeroed
// and Cached is set, so a hit is byte-identical to the deterministic
// part of an uncached response (TestCachedResultByteIdentical).
type resultCache struct {
	mu sync.Mutex
	// Guarded by mu (contiguous block): the LRU index and order list,
	// the in-flight table, and the clock/limits the eviction and expiry
	// decisions read.
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*flight
	cap     int
	ttl     time.Duration
	now     func() time.Time // injectable for TTL tests

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64
	coalesced   atomic.Uint64 // waiters served by another request's in-flight parse
}

// rcEntry is one memoized response.
type rcEntry struct {
	key     string
	resp    ParseResult
	status  int
	expires time.Time
}

// flight is one in-progress parse other identical requests wait on.
// done is closed exactly once, after resp/status/panicked are final.
type flight struct {
	done     chan struct{}
	resp     ParseResult
	status   int
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
	// in-flight parse; the returned result is a placeholder the caller
	// must replace with its own timeout response.
	rcExpiredWait
)

// newResultCache builds a cache holding up to capacity entries for up
// to ttl each. capacity must be positive (the server disables the
// cache by not constructing one).
func newResultCache(capacity int, ttl time.Duration) *resultCache {
	return &resultCache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight),
		cap:     capacity,
		ttl:     ttl,
		now:     time.Now,
	}
}

// claim looks key up without blocking. A live memo entry answers at
// once (f == nil). Otherwise the caller gets the key's flight: a parse
// already in progress to follow with wait (leads == false), or a new
// one it now leads and must end with finish or abandon. Leading counts
// as a miss.
func (rc *resultCache) claim(key string) (resp ParseResult, status int, f *flight, leads bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[key]; ok {
		e := el.Value.(*rcEntry)
		if rc.now().Before(e.expires) {
			rc.order.MoveToFront(el)
			rc.hits.Add(1)
			return e.resp, e.status, nil, false
		}
		rc.order.Remove(el)
		delete(rc.entries, key)
		rc.expirations.Add(1)
	}
	if f, ok := rc.flights[key]; ok {
		return ParseResult{}, 0, f, false
	}
	f = &flight{done: make(chan struct{})}
	rc.flights[key] = f
	rc.misses.Add(1)
	return ParseResult{}, 0, f, true
}

// finish ends the flight the caller leads with its parse's outcome: a
// 200 is memoized, and every follower is released with it.
func (rc *resultCache) finish(key string, f *flight, resp ParseResult, status int) {
	if status == http.StatusOK {
		resp = sanitizeCached(resp)
	}
	rc.mu.Lock()
	delete(rc.flights, key)
	if status == http.StatusOK {
		rc.insertLocked(key, resp, status)
	}
	rc.mu.Unlock()
	f.resp, f.status = resp, status
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
// A leader's 200 is the follower's answer (rcCoalesced). A leader's
// failure — its deadline, a 500 — may be specific to that request, so
// it is not inherited: wait returns rcMiss, and the caller runs its own
// parse and offers the outcome to store.
func (rc *resultCache) wait(ctx context.Context, f *flight) (ParseResult, int, rcOutcome) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return ParseResult{}, http.StatusGatewayTimeout, rcExpiredWait
	}
	if f.panicked != nil {
		panic(f.panicked)
	}
	if f.status == http.StatusOK {
		rc.coalesced.Add(1)
		return f.resp, f.status, rcCoalesced
	}
	rc.misses.Add(1)
	return ParseResult{}, f.status, rcMiss
}

// store memoizes the outcome of a parse run outside any flight (a
// follower's own, after its leader failed) when it is a 200.
func (rc *resultCache) store(key string, resp ParseResult, status int) {
	if status != http.StatusOK {
		return
	}
	rc.mu.Lock()
	rc.insertLocked(key, sanitizeCached(resp), status)
	rc.mu.Unlock()
}

// insertLocked stores one sanitized response, evicting from the LRU
// tail to stay within capacity. Caller holds mu.
func (rc *resultCache) insertLocked(key string, resp ParseResult, status int) {
	if el, ok := rc.entries[key]; ok {
		// A racing leader (possible after an expiry removed the entry
		// both saw) already stored; refresh it.
		e := el.Value.(*rcEntry)
		e.resp, e.status, e.expires = resp, status, rc.now().Add(rc.ttl)
		rc.order.MoveToFront(el)
		return
	}
	for rc.order.Len() >= rc.cap {
		tail := rc.order.Back()
		if tail == nil {
			break
		}
		rc.order.Remove(tail)
		delete(rc.entries, tail.Value.(*rcEntry).key)
		rc.evictions.Add(1)
	}
	rc.entries[key] = rc.order.PushFront(&rcEntry{
		key: key, resp: resp, status: status, expires: rc.now().Add(rc.ttl),
	})
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

// Len reports the current entry count (tests).
func (rc *resultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.order.Len()
}

// rcStats is the counter snapshot threaded into /metrics and Stats.
type rcStats struct {
	Hits, Misses, Evictions, Expirations, Coalesced uint64
}

func (rc *resultCache) stats() rcStats {
	if rc == nil {
		return rcStats{}
	}
	return rcStats{
		Hits:        rc.hits.Load(),
		Misses:      rc.misses.Load(),
		Evictions:   rc.evictions.Load(),
		Expirations: rc.expirations.Load(),
		Coalesced:   rc.coalesced.Load(),
	}
}
