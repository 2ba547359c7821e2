package router

import (
	"sync"

	"repro/internal/lru"
)

// The router's result cache. Most repeated /v1/parse requests are
// shard result-cache hits, and what such a hit costs is the
// router→shard hop, not the parse. So the router keeps the answers a
// shard says it served from its own cache (server.CacheHeader), byte
// for byte, under the key it already places requests by
// (server.CacheKey, the shards' own result-cache key), and answers a
// repeat from them before it ranks, tracks, admits or forwards
// anything. A shard's hit is sanitized stored bytes, the same on every
// shard for one key, so the router never decodes, shapes or re-encodes
// a body. A shard's first answer carries its timings and is not kept,
// which also keeps a one-off sentence out: a key reaches the router
// cache on its second request.

// defaultCacheEntries is the router cache's default capacity. It is
// small on purpose: the router keeps the head of the request
// distribution and the shards keep the tail.
const defaultCacheEntries = 256

// maxCachedBody bounds one kept answer, and so the cache at
// ResultCacheEntries × 64 KiB.
const maxCachedBody = 64 << 10

// cacheAnswerer is the X-Parsec-Shard value of an answer the router
// served from its own cache.
const cacheAnswerer = "router"

// resultCache is the router's LRU of kept /v1/parse answers.
type resultCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, []byte]
}

// newResultCache returns a cache of capacity entries, or nil when
// capacity is negative (the cache is off).
func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		return nil
	}
	return &resultCache{entries: lru.New[string, []byte](capacity)}
}

// get returns the answer kept under key.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Get(key)
}

// add keeps body under key, evicting the least recently used answer
// when the cache is full.
func (c *resultCache) add(key string, body []byte) {
	c.mu.Lock()
	c.entries.Add(key, body)
	c.mu.Unlock()
}
