// Package lru is the one least-recently-used map of the repository. It
// backs every bounded memo the service keeps: parsecd's result cache
// and compiled grammars, the lattice engine's prefix snapshots and the
// MasPar backend's PE layouts. A Cache has no lock of its own: each
// memo guards its Cache with its own mutex, together with its counters
// and the rule only it has (the result cache's and the grammar cache's
// singleflight, the layout cache keeping the incumbent of two racing
// builds).
package lru

import "container/list"

// Cache maps keys to values and holds at most its capacity of them,
// evicting the least recently used first. Get and Add each count as a
// use of the key. Build one with New.
type Cache[K comparable, V any] struct {
	capacity int
	items    map[K]*list.Element
	order    *list.List // front = most recently used; values are *entry[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache that holds at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, items: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value stored under key and makes it the most recently
// used entry.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value stored under key without using it: the
// entry keeps its place in the recency order.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key as the most recently used entry, replacing
// the value already there, then evicts least recently used entries
// until the cache is within its capacity. It returns how many entries
// it evicted.
func (c *Cache[K, V]) Add(key K, val V) (evicted int) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return 0
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.capacity {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.items, tail.Value.(*entry[K, V]).key)
		evicted++
	}
	return evicted
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Keys lists the keys held, from the most to the least recently used,
// without using any of them.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}
