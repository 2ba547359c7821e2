package maspar

// Reference scalar kernels ("refscan"): segmented scans (scanOr /
// scanAnd, MasPar System Overview 1990), the copy-scan broadcast idiom,
// global reductions, and router gathers — one PE per host iteration
// over byte-per-PE plural vectors. All operate over the *active* PE set
// — disabled PEs neither contribute nor receive, exactly like Figure
// 12's "PE disabled only during the scanAnd".
//
// Segments are defined over the sequence of active PEs: a new segment
// begins at every active PE whose segHead bit is set, and the first
// active PE always begins one. Each primitive costs one router pass,
// O(log P) cycle-depth, regardless of segment structure.
//
// These scalar loops are the executable specification for the packed
// word-parallel kernels in packed.go; the property tests in
// packed_test.go assert both agree bit-for-bit (outputs, cycle counts,
// scan-op counts) on random masks and segment structures. Like the
// packed kernels, each writes its result into a caller-owned dst (V
// bytes), which it clears first, so the byte API allocates nothing.

// Bit is the plural bit type flowing through the scan network.
type Bit = uint8

// SegScanOr performs an inclusive, segmented OR-scan into dst: each
// active PE receives the OR of its segment's values up to and
// including itself. Inactive PEs get a zero result.
//
//parsec:noalloc
func (m *Machine) SegScanOr(dst, data []Bit, segHead []bool) {
	m.chargeScan()
	clear(dst)
	var acc Bit
	open := false
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || !open {
			acc = 0
			open = true
		}
		acc |= data[pe]
		dst[pe] = acc
	}
}

// SegScanAnd is the AND counterpart of SegScanOr.
func (m *Machine) SegScanAnd(dst, data []Bit, segHead []bool) {
	m.chargeScan()
	clear(dst)
	acc := Bit(1)
	open := false
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || !open {
			acc = 1
			open = true
		}
		acc &= data[pe]
		dst[pe] = acc
	}
}

// SegReduceOrToHead ORs each segment and deposits the result in dst
// at the segment's head PE (zero elsewhere). On the real machine this
// is a backward scanOr read off at the boundary PEs; it costs one scan.
//
//parsec:noalloc
func (m *Machine) SegReduceOrToHead(dst, data []Bit, segHead []bool) {
	m.chargeScan()
	clear(dst)
	head := -1
	var acc Bit
	//lint:allow allocfree (non-escaping closure: stack-allocated, AllocsPerRun==0 pins it)
	flush := func() {
		if head >= 0 {
			dst[head] = acc
		}
	}
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || head < 0 {
			flush()
			head = pe
			acc = 0
		}
		acc |= data[pe]
	}
	flush()
}

// SegReduceAndToHead ANDs each segment into dst at its head PE (zero
// elsewhere, including inactive heads' positions).
func (m *Machine) SegReduceAndToHead(dst, data []Bit, segHead []bool) {
	m.chargeScan()
	clear(dst)
	head := -1
	acc := Bit(1)
	flush := func() {
		if head >= 0 {
			dst[head] = acc
		}
	}
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || head < 0 {
			flush()
			head = pe
			acc = 1
		}
		acc &= data[pe]
	}
	flush()
}

// CopySegHead broadcasts each segment head's value into dst at every
// active PE of its segment (the copy-scan idiom used to distribute
// consistency verdicts back across a column block).
//
//parsec:noalloc
func (m *Machine) CopySegHead(dst, data []Bit, segHead []bool) {
	m.chargeScan()
	clear(dst)
	var cur Bit
	open := false
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || !open {
			cur = data[pe]
			open = true
		}
		dst[pe] = cur
	}
}

// ReduceOr returns the global OR over all active PEs (delivered to the
// ACU, e.g. the "did anything change this round?" test).
func (m *Machine) ReduceOr(data []Bit) Bit {
	m.chargeScan()
	var acc Bit
	for pe := 0; pe < m.v; pe++ {
		if m.Enabled(pe) {
			acc |= data[pe]
		}
	}
	return acc
}

// ReduceAnd returns the global AND over all active PEs (1 if no active
// PEs).
func (m *Machine) ReduceAnd(data []Bit) Bit {
	m.chargeScan()
	acc := Bit(1)
	for pe := 0; pe < m.v; pe++ {
		if m.Enabled(pe) {
			acc &= data[pe]
		}
	}
	return acc
}

// RouterFetch gathers through the global router into dst: every
// active PE pe receives data[src[pe]], and inactive PEs get zero. src
// indices address the full virtual array (the transpose permutation of
// the PARSEC layout is the main user). One router pass.
func (m *Machine) RouterFetch(dst []Bit, src []int32, data []Bit) {
	m.chargeRouter()
	clear(dst)
	for pe := 0; pe < m.v; pe++ {
		if m.Enabled(pe) {
			dst[pe] = data[src[pe]]
		}
	}
}
