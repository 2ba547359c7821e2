package maspar

import "math/bits"

// Word-parallel scan kernels over the packed plural representation: 64
// PEs per uint64 word, LSB = lowest PE. Each kernel is charged exactly
// like its scalar counterpart in refscan.go (chargeScan) and is held
// bit-identical to it by the
// property tests in packed_test.go — host word-parallelism is a
// simulation speedup, not a model change.
//
// The copy-scan rides the binary-add carry chain: CopySegHeadV
// reduces to the lane recurrence
//
//	acc[i] = gen[i] | (^reset[i] & acc[i-1])        (acc[-1] = 0)
//
// over the packed lanes. Complementing b = ^acc turns it into
//
//	b[i] = G[i] | (P[i] & b[i-1])   with   P = ^gen, G = ^gen & reset
//
// which is exactly the carry recurrence c·2 = G + P·c of a binary
// adder (G ⊆ P always holds here, making generate/propagate
// consistent). One bits.Add64 per word therefore propagates all 64
// lane resets at once: S = P + G + cin has carry-out into lane i+1
// precisely where b[i] would be set, so the per-lane carries are
// recovered as C = P ^ G ^ S and b = (C >> 1) | (cout << 63). The
// chain starts with cin = 1 so that acc[-1] = ^b[-1] = 0.
//
// The reductions to segment heads run the mirrored recurrence, from
// high lanes down, as blocked shift-ors (segFlowDown): the in-word
// image of the machine's log-depth scan.
//
//parsec:noalloc
func segFillWord(gen, reset, cin uint64) (acc, cout uint64) {
	p := ^gen
	g := p & reset
	sum, co := bits.Add64(p, g, cin)
	b := ((p ^ g ^ sum) >> 1) | (co << 63)
	return ^b, co
}

// firstActive returns the word index and in-word bit of the lowest
// active PE (ok=false when the mask is empty). Segmented primitives
// need it because the first active PE always begins a segment whether
// or not its head bit is set.
//
//parsec:noalloc
func (m *Machine) firstActive() (w int, bit uint64, ok bool) {
	for i, e := range m.mask {
		if e != 0 {
			return i, e & -e, true
		}
	}
	return 0, 0, false
}

// CopySegHeadV is the packed CopySegHead: every active lane receives
// its segment head's data value. With gen = data & effectiveHead and
// reset = effectiveHead the shared recurrence loads the head's value
// (0 or 1) at each head and carries it across the segment.
//
//parsec:noalloc
func (m *Machine) CopySegHeadV(dst, data, segHead []uint64) {
	m.chargeScan()
	fw, fbit, _ := m.firstActive()
	cin := uint64(1)
	for w, e := range m.mask {
		reset := segHead[w] & e
		if w == fw {
			reset |= fbit
		}
		acc, co := segFillWord(data[w]&reset, reset, cin)
		dst[w] = acc & e
		cin = co
	}
}

// SegReduceOrToHeadV is the packed SegReduceOrToHead: each segment's
// OR lands on its head lane, zero elsewhere. It runs the backward
// recurrence
//
//	r[i] = gen[i] | (^reset[i+1] & r[i+1])
//
// from the top word down: lane i stops absorbing from above when lane
// i+1 starts a new segment, and a word's lane 63 absorbs lane 0 of the
// word above. dst must not alias data or segHead.
//
//parsec:noalloc
func (m *Machine) SegReduceOrToHeadV(dst, data, segHead []uint64) {
	m.chargeScan()
	m.segReduceToHead(dst, data, segHead, false)
}

// SegReduceAndToHeadV is the packed SegReduceAndToHead (each segment's
// AND to its head lane). dst must not alias data or segHead.
//
//parsec:noalloc
func (m *Machine) SegReduceAndToHeadV(dst, data, segHead []uint64) {
	m.chargeScan()
	m.segReduceToHead(dst, data, segHead, true)
}

// segReduceToHead ORs each segment to its head (an AND is the
// complement of the OR of the complements). The value flowing down
// from the word above enters at lane 63, unless lane 0 of that word
// heads a segment.
//
//parsec:noalloc
func (m *Machine) segReduceToHead(dst, data, segHead []uint64, and bool) {
	fw, fbit, _ := m.firstActive()
	var flow uint64       // r at lane 0 of the word above
	var resetAbove uint64 // reset word at w+1, for the lane shift
	for w := len(m.mask) - 1; w >= 0; w-- {
		e := m.mask[w]
		reset := segHead[w] & e
		// Lane i absorbs lane i+1 unless lane i+1 heads a segment.
		open := ^((reset >> 1) | (resetAbove << 63))
		resetAbove = reset
		gen := data[w] & e
		if and {
			gen = ^data[w] & e
		}
		r := segFlowDown(gen|((flow<<63)&open), open)
		flow = r & 1
		heads := reset
		if w == fw {
			heads |= fbit
		}
		if and {
			r = ^r
		}
		dst[w] = r & heads
	}
}

// segFlowDown evaluates r[i] = x[i] | (open[i] & r[i+1]) inside one
// word (r[64] = 0) in six blocked shift-ors, where open[i] says that
// lane i+1 heads no segment. After the step of width k, x[i] is the OR
// of the lanes in [i, i+2k) whose values reach lane i, and open[i]
// says that no lane in [i+1, i+2k] heads a segment. Each step carries
// a value only across lanes with no head, so nothing flows past a
// segment head.
//
//parsec:noalloc
func segFlowDown(x, open uint64) uint64 {
	x |= (x >> 1) & open
	open &= open >> 1
	x |= (x >> 2) & open
	open &= open >> 2
	x |= (x >> 4) & open
	open &= open >> 4
	x |= (x >> 8) & open
	open &= open >> 8
	x |= (x >> 16) & open
	open &= open >> 16
	return x | (x>>32)&open
}

// WordsFor returns the packed vector length covering n PEs.
func WordsFor(n int) int { return (n + 63) / 64 }

// PackBits packs a []Bit plural vector (any nonzero byte = 1) into dst
// (WordsFor(len(src)) words). dst is fully overwritten.
func PackBits(dst []uint64, src []Bit) {
	for w := range dst {
		base := w << 6
		lim := len(src) - base
		if lim > 64 {
			lim = 64
		}
		var x uint64
		for b := 0; b < lim; b++ {
			if src[base+b] != 0 {
				x |= uint64(1) << uint(b)
			}
		}
		dst[w] = x
	}
}

// PackBools packs a []bool plural vector into dst, like PackBits.
func PackBools(dst []uint64, src []bool) {
	for w := range dst {
		base := w << 6
		lim := len(src) - base
		if lim > 64 {
			lim = 64
		}
		var x uint64
		for b := 0; b < lim; b++ {
			if src[base+b] {
				x |= uint64(1) << uint(b)
			}
		}
		dst[w] = x
	}
}

// UnpackBits expands a packed vector into dst (one byte per PE, 0/1).
func UnpackBits(dst []Bit, src []uint64) {
	for i := range dst {
		dst[i] = Bit(src[i>>6] >> (uint(i) & 63) & 1)
	}
}
