package locksafe

import "sync"

// pool is a buffer arena: a mutex-guarded free list that recycles
// fixed-size slices on a hot path. The free list and its
// sizing fields sit in the mutex's contiguous block, so every access
// must hold the lock.
type pool struct {
	mu    sync.Mutex
	words [][]uint64
	size  int
}

func (p *pool) get() []uint64 {
	p.mu.Lock()
	if n := len(p.words); n > 0 {
		b := p.words[n-1]
		p.words = p.words[:n-1]
		p.mu.Unlock()
		return b
	}
	size := p.size
	p.mu.Unlock()
	return make([]uint64, size)
}

func (p *pool) put(b []uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(b) != p.size {
		return // stale buffer from before a resize: drop it
	}
	p.words = append(p.words, b)
}

func (p *pool) reset(size int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.size = size
	p.words = p.words[:0]
}

// leakyGet pops from the free list without the lock: two concurrent
// callers can receive the same buffer.
func (p *pool) leakyGet() []uint64 {
	if n := len(p.words); n > 0 { // want "p.words is guarded by mu"
		b := p.words[n-1]       // want "p.words is guarded by mu"
		p.words = p.words[:n-1] // want "p.words is guarded by mu"
		return b
	}
	return nil
}

// leakyPut checks the size before taking the lock, racing reset.
func (p *pool) leakyPut(b []uint64) {
	if len(b) != p.size { // want "p.size is guarded by mu"
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.words = append(p.words, b)
}
