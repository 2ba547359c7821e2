package maspar

import "sync"

// arena is a per-Machine free-list of plural buffers so steady-state
// primitives allocate nothing: packed []uint64 vectors (WordLen words)
// and reference []Bit vectors (V bytes). Buffers are handed out hot
// (packed vectors have unspecified contents; byte vectors are cleared,
// matching the zero-filled make the scalar kernels used to do).
//
// A Machine is not safe for concurrent instruction issue — the SIMD
// model is a single ACU — and every instruction runs on its caller's
// goroutine, so the package never touches the free-list from two
// goroutines at once. The mutex guards the free-list for callers that
// return a buffer from another goroutine than the one issuing
// instructions.
type arena struct {
	mu    sync.Mutex
	words [][]uint64 // free packed vectors, each len nw
	bytes [][]Bit    // free byte vectors, each len n
	nw    int        // current packed vector length (words)
	n     int        // current byte vector length (PEs)
}

// reset invalidates all outstanding buffers and re-sizes the arena for
// a new program. Buffers from before the reset are silently dropped
// when returned (their length no longer matches).
func (a *arena) reset(nw, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.words = a.words[:0]
	a.bytes = a.bytes[:0]
	a.nw = nw
	a.n = n
}

func (a *arena) getWords() []uint64 {
	a.mu.Lock()
	if k := len(a.words); k > 0 {
		v := a.words[k-1]
		a.words[k-1] = nil
		a.words = a.words[:k-1]
		a.mu.Unlock()
		return v
	}
	nw := a.nw
	a.mu.Unlock()
	return make([]uint64, nw)
}

func (a *arena) putWords(v []uint64) {
	a.mu.Lock()
	if len(v) == a.nw && a.nw > 0 {
		a.words = append(a.words, v)
	}
	a.mu.Unlock()
}

//parsec:noalloc
func (a *arena) getBytes() []Bit {
	a.mu.Lock()
	if k := len(a.bytes); k > 0 {
		b := a.bytes[k-1]
		a.bytes[k-1] = nil
		a.bytes = a.bytes[:k-1]
		a.mu.Unlock()
		for i := range b {
			b[i] = 0
		}
		return b
	}
	n := a.n
	a.mu.Unlock()
	//lint:allow allocfree (free-list miss: first call per buffer; steady state recycles)
	return make([]Bit, n)
}

//parsec:noalloc
func (a *arena) putBytes(b []Bit) {
	a.mu.Lock()
	if len(b) == a.n && a.n > 0 {
		//lint:allow allocfree (free-list growth is amortized; steady state appends into capacity)
		a.bytes = append(a.bytes, b)
	}
	a.mu.Unlock()
}

// GetVec returns a packed plural vector (WordLen words) from the
// arena. Contents are unspecified — every packed kernel writes all of
// dst. Return it with PutVec when done; vectors outlive neither a
// Setup nor the Machine.
func (m *Machine) GetVec() []uint64 { return m.buf.getWords() }

// PutVec returns a packed vector to the arena for reuse. Passing a
// slice of the wrong length (e.g. from before a Setup) is a no-op.
func (m *Machine) PutVec(v []uint64) { m.buf.putWords(v) }

// GetBits returns a zeroed plural byte vector (V bytes) from the arena.
func (m *Machine) GetBits() []Bit { return m.buf.getBytes() }

// PutBits returns a byte vector to the arena for reuse. The scalar
// primitives hand their results out of the arena, so callers that are
// done with a result can recycle it to make the byte API allocation-free
// in steady state too.
//
//parsec:noalloc
func (m *Machine) PutBits(b []Bit) { m.buf.putBytes(b) }
