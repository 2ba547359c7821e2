package lru

import (
	"slices"
	"testing"
)

// contents lists the entries from most to least recently used without
// touching any of them.
func (c *Cache[K, V]) contents() []entry[K, V] {
	var out []entry[K, V]
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*entry[K, V]))
	}
	return out
}

// FuzzLRUMatchesModel runs a sequence of Gets and Adds over ten keys at
// a capacity of 1–8 and, after every step, holds the cache to a slice
// kept in recency order: the entries and their order (and so which
// entry an Add evicted), the value a Get returns, the count an Add
// returns, and Len, which never exceeds the capacity. After every step
// it also Peeks every key and lists Keys, which must match the model
// without moving any entry. Each op byte is one step: bit 0 picks Add
// (1) or Get (0), the bits above it the key.
func FuzzLRUMatchesModel(f *testing.F) {
	f.Add(uint8(0), []byte{1, 3, 0, 2, 5})
	f.Add(uint8(1), []byte{1, 3, 0, 5, 2, 1, 7})
	f.Add(uint8(2), []byte{1, 3, 5, 7, 2, 9, 0, 4, 11, 3})
	f.Add(uint8(7), []byte{1, 3, 5, 7, 9, 11, 13, 15, 0, 17, 19, 2, 4, 1, 6})
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		capacity := 1 + int(capByte)%8
		c := New[int, int](capacity)
		var model []entry[int, int] // front = most recently used
		for step, op := range ops {
			key := int(op>>1) % 10
			i := slices.IndexFunc(model, func(e entry[int, int]) bool { return e.key == key })
			if op&1 == 0 {
				got, ok := c.Get(key)
				if ok != (i >= 0) || ok && got != model[i].val {
					t.Fatalf("step %d: Get(%d) = %d, %v; model %v", step, key, got, ok, model)
				}
				if ok {
					e := model[i]
					model = slices.Insert(slices.Delete(model, i, i+1), 0, e)
				}
			} else {
				want := 0
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
				model = slices.Insert(model, 0, entry[int, int]{key, step})
				for len(model) > capacity {
					model = model[:len(model)-1]
					want++
				}
				if got := c.Add(key, step); got != want {
					t.Fatalf("step %d: Add(%d) evicted %d, want %d", step, key, got, want)
				}
			}
			keys := make([]int, len(model))
			for k, e := range model {
				keys[k] = e.key
			}
			if got := c.Keys(); !slices.Equal(got, keys) {
				t.Fatalf("step %d: Keys %v, want %v", step, got, keys)
			}
			for k := 0; k < 10; k++ {
				i := slices.Index(keys, k)
				if got, ok := c.Peek(k); ok != (i >= 0) || ok && got != model[i].val {
					t.Fatalf("step %d: Peek(%d) = %d, %v; model %v", step, k, got, ok, model)
				}
			}
			if got := c.contents(); !slices.Equal(got, model) {
				t.Fatalf("step %d (op %d, key %d): entries %v, want %v", step, op, key, got, model)
			}
			if n := c.Len(); n != len(model) || n > capacity {
				t.Fatalf("step %d: Len %d, model %d, capacity %d", step, n, len(model), capacity)
			}
		}
	})
}
