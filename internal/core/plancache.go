package core

import (
	"sync"

	"repro/internal/cdg"
	"repro/internal/lru"
)

// The PE-map plan cache. A Layout — the full PE allocation of §2.2.2
// plus its packed activity masks — depends only on the grammar and the
// sentence length, yet the scalar backend rebuilt it (O(S²) work) for
// every parse. Batches coalesced by the server are grammar-uniform and
// heavily length-repetitive, so a small LRU keyed by (grammar, length)
// amortizes the planning across the batch and across requests.
//
// Grammars are compared by pointer identity: a *cdg.Grammar is
// immutable once built and the grammar registry (grammars.ByName) hands
// out one instance per name, so pointer equality is exactly "same
// grammar". A reloaded grammar is a new pointer and misses cleanly.

type layoutKey struct {
	g *cdg.Grammar
	n int
}

const layoutCacheCap = 128

type layoutCache struct {
	mu      sync.Mutex
	layouts *lru.Cache[layoutKey, *Layout]
	hits    uint64
	misses  uint64
}

var planCache = &layoutCache{layouts: lru.New[layoutKey, *Layout](layoutCacheCap)}

// layoutFor returns the (possibly cached) Layout for a space. Layouts
// are immutable, so a cached instance is safe to share across
// concurrent parses.
func layoutFor(sp *cdg.Space) *Layout {
	return planCache.get(sp.Grammar(), sp.N(), sp.Q())
}

func (c *layoutCache) get(g *cdg.Grammar, n, q int) *Layout {
	key := layoutKey{g: g, n: n}
	c.mu.Lock()
	if ly, ok := c.layouts.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return ly
	}
	c.misses++
	c.mu.Unlock()

	// Build outside the lock: layouts are pure functions of the key, so
	// a racing duplicate build is wasted work, not an inconsistency.
	ly := buildLayout(g, n, q)

	c.mu.Lock()
	defer c.mu.Unlock()
	if incumbent, ok := c.layouts.Get(key); ok {
		// Another parse built it first; keep the incumbent so all
		// concurrent parses share one instance.
		return incumbent
	}
	c.layouts.Add(key, ly)
	return ly
}

func (c *layoutCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// LayoutCacheStats reports the PE-map plan cache's cumulative hit and
// miss counts (exported on the server's /metrics page).
func LayoutCacheStats() (hits, misses uint64) {
	return planCache.stats()
}
