package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/lru"
)

// grammarCacheEntries bounds the compiled grammars a Cache keeps. Each
// distinct inline source is one entry, so without a bound a client
// could grow the daemon's heap (and /v1/grammars) one source at a time.
const grammarCacheEntries = 64

// Cache is the compiled-grammar cache: built-in grammars are
// constructed once per name, inline grammar sources are compiled once
// per content hash, and the grammarCacheEntries most recently used are
// kept. An evicted built-in name resolves again to the registry's same
// grammar; an evicted source compiles again. Safe for concurrent use;
// a compile in flight for one key does not block lookups of other
// keys, and concurrent requests for one key compile it once.
type Cache struct {
	mu sync.Mutex
	// Guarded by mu (contiguous block): the compiled grammars, the
	// compiles in flight and the hit/miss counts.
	grammars *lru.Cache[string, *cdg.Grammar]
	compiles map[string]*compile
	hits     uint64
	misses   uint64
}

// compile is one grammar build in flight. It publishes g and err by
// closing ready; waiters read them only after ready is closed.
type compile struct {
	ready chan struct{}
	g     *cdg.Grammar
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		grammars: lru.New[string, *cdg.Grammar](grammarCacheEntries),
		compiles: make(map[string]*compile),
	}
}

// SourceKey is the cache key of an inline grammar source: the prefix
// "src:" plus the first 16 hex digits of its SHA-256.
func SourceKey(source string) string {
	sum := sha256.Sum256([]byte(source))
	return "src:" + hex.EncodeToString(sum[:])[:16]
}

// Get resolves a request's grammar: source (compiled and cached by
// content hash) when non-empty, else the built-in registry by name
// (empty name: "demo"). It returns the grammar and the cache key that
// identifies it in responses and /v1/grammars.
func (c *Cache) Get(name, source string) (*cdg.Grammar, string, error) {
	var key string
	var build func() (*cdg.Grammar, error)
	if source != "" {
		key = SourceKey(source)
		build = func() (*cdg.Grammar, error) { return cdg.ParseGrammar(source) }
	} else {
		if name == "" {
			name = "demo"
		}
		key = name
		build = func() (*cdg.Grammar, error) { return grammars.ByName(name) }
	}

	c.mu.Lock()
	if g, ok := c.grammars.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return g, key, nil
	}
	cp, ok := c.compiles[key]
	if ok {
		c.hits++
		c.mu.Unlock()
		<-cp.ready
	} else {
		cp = &compile{ready: make(chan struct{})}
		c.compiles[key] = cp
		c.misses++
		c.mu.Unlock()
		cp.g, cp.err = build()
		// A failed compile is not stored: a later identical request
		// compiles again, and the key stays out of /v1/grammars.
		c.mu.Lock()
		delete(c.compiles, key)
		if cp.err == nil {
			c.grammars.Add(key, cp.g)
		}
		c.mu.Unlock()
		close(cp.ready)
	}
	if cp.err != nil {
		return nil, key, fmt.Errorf("grammar %s: %w", key, cp.err)
	}
	return cp.g, key, nil
}

// Keys lists the compiled grammar keys the cache holds, sorted.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := c.grammars.Keys()
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Lookup returns a grammar the cache holds without compiling anything
// or counting as a use of it.
func (c *Cache) Lookup(key string) (*cdg.Grammar, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.grammars.Peek(key)
}

// Stats returns the hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
