package maspar

import (
	"fmt"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/grammars"
)

// splitmix64 — a tiny deterministic generator so every case in the
// packed-vs-reference property sweep is reproducible from the printed
// case label alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) coin(pctTrue int) bool { return r.intn(100) < pctTrue }

var maskStyles = []string{"full", "empty", "half", "sparse", "single", "altwords"}

func buildMask(style string, v int, r *rng) []bool {
	mask := make([]bool, v)
	switch style {
	case "full":
		for i := range mask {
			mask[i] = true
		}
	case "empty":
	case "half":
		for i := range mask {
			mask[i] = r.coin(50)
		}
	case "sparse":
		for i := range mask {
			mask[i] = r.coin(10)
		}
	case "single":
		mask[r.intn(v)] = true
	case "altwords":
		// whole 64-PE words on/off, exercising full-word fast paths
		for i := range mask {
			mask[i] = (i>>6)&1 == 0
		}
	}
	return mask
}

var headStyles = []string{"none", "all", "random", "rare"}

func buildHeads(style string, v int, r *rng) []bool {
	heads := make([]bool, v)
	switch style {
	case "none":
	case "all": // every active PE is a single-PE segment
		for i := range heads {
			heads[i] = true
		}
	case "random":
		for i := range heads {
			heads[i] = r.coin(25)
		}
	case "rare":
		for i := range heads {
			heads[i] = r.coin(3)
		}
	}
	return heads
}

// TestPackedMatchesReferenceKernels is the refscan↔packed property
// sweep: for every size/mask/segment shape (including all-inactive
// masks and single-PE segments) each packed kernel must match the
// scalar reference bit-for-bit AND charge the same cycles, scan ops,
// router ops, and elemental instructions.
func TestPackedMatchesReferenceKernels(t *testing.T) {
	sizes := []int{1, 4, 63, 64, 65, 121, 128, 129, 256, 300, 517, 1024}
	for _, v := range sizes {
		for _, ms := range maskStyles {
			for _, hs := range headStyles {
				t.Run(fmt.Sprintf("v=%d/mask=%s/heads=%s", v, ms, hs), func(t *testing.T) {
					runPackedVsRef(t, v, ms, hs)
				})
			}
		}
	}
}

func runPackedVsRef(t *testing.T, v int, maskStyle, headStyle string) {
	t.Helper()
	r := &rng{s: uint64(v)*1000003 + uint64(len(maskStyle))*31 + uint64(len(headStyle))}
	ref, err := New(64, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := New(64, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Setup(v); err != nil {
		t.Fatal(err)
	}
	if _, err := pk.Setup(v); err != nil {
		t.Fatal(err)
	}

	mask := buildMask(maskStyle, v, r)
	heads := buildHeads(headStyle, v, r)
	data := make([]Bit, v)
	for i := range data {
		if r.coin(50) {
			data[i] = 1
		}
	}

	pred := func(pe int) bool { return mask[pe] }
	ref.SetMask(pred)
	pk.SetMask(pred)

	dataV := make([]uint64, pk.WordLen())
	headV := make([]uint64, pk.WordLen())
	out := make([]uint64, pk.WordLen())
	got := make([]Bit, v)
	want := make([]Bit, v)
	PackBits(dataV, data)
	PackBools(headV, heads)

	check := func(name string, want []Bit) {
		t.Helper()
		UnpackBits(got, out)
		for pe := 0; pe < v; pe++ {
			if got[pe] != want[pe] {
				t.Fatalf("%s: PE %d: packed=%d ref=%d (v=%d mask=%s heads=%s)",
					name, pe, got[pe], want[pe], v, maskStyle, headStyle)
			}
		}
	}

	pk.CopySegHeadV(out, dataV, headV)
	ref.CopySegHead(want, data, heads)
	check("CopySegHead", want)

	pk.SegReduceOrToHeadV(out, dataV, headV)
	ref.SegReduceOrToHead(want, data, heads)
	check("SegReduceOrToHead", want)

	pk.SegReduceAndToHeadV(out, dataV, headV)
	ref.SegReduceAndToHead(want, data, heads)
	check("SegReduceAndToHead", want)

	if ref.Cycles != pk.Cycles || ref.ScanOps != pk.ScanOps ||
		ref.RouterOps != pk.RouterOps || ref.Instr != pk.Instr {
		t.Fatalf("counter drift: ref{cycles=%d scans=%d routers=%d instr=%d} packed{cycles=%d scans=%d routers=%d instr=%d}",
			ref.Cycles, ref.ScanOps, ref.RouterOps, ref.Instr,
			pk.Cycles, pk.ScanOps, pk.RouterOps, pk.Instr)
	}
}

// TestPackedKernelsAtScale repeats the sweep at a realistic size with
// randomized shapes each round — a cheap fuzz of the carry chains
// across many word boundaries.
func TestPackedKernelsAtScale(t *testing.T) {
	r := &rng{s: 42}
	for round := 0; round < 8; round++ {
		v := 2000 + r.intn(3000)
		runPackedVsRef(t, v, maskStyles[r.intn(len(maskStyles))], headStyles[r.intn(len(headStyles))])
	}
	// The PARSEC layout's S×S arrays at paper scale (S = 128, 129, 103).
	runPackedVsRef(t, 16384, "full", "random") // s = 128
	runPackedVsRef(t, 16641, "half", "rare")   // s = 129
	runPackedVsRef(t, 10609, "sparse", "none") // s = 103
}

// randomRanges picks sorted word ranges of a v-lane vector that share
// no word and, in each, a lane span [first, end) that a Ranges kernel
// must get exactly right: first becomes an active segment head, and so
// does end when it is a lane, so every segment of the span lies inside
// the range. Either edge falls on the range's word edge or mid-word. It
// returns the ranges and the spans' lanes, packed.
func randomRanges(r *rng, v int, mask, heads []bool) ([]WordRange, []uint64) {
	nw := WordsFor(v)
	exact := make([]uint64, nw)
	var out []WordRange
	for lo := r.intn(3); lo < nw; {
		hi := min(lo+1+r.intn(4), nw)
		out = append(out, WordRange{lo, hi})
		first, end := lo<<6, min(hi<<6, v)
		if r.coin(50) {
			first += r.intn(end - first)
		}
		if r.coin(50) {
			end = first + 1 + r.intn(end-first)
		}
		for _, lane := range []int{first, end} {
			if lane < v {
				mask[lane], heads[lane] = true, true
			}
		}
		for i := first; i < end; i++ {
			exact[i>>6] |= uint64(1) << (uint(i) & 63)
		}
		lo = hi + r.intn(3)
	}
	return out, exact
}

// checkRangesMatchFullWidth runs each scan kernel's Ranges entry point
// on one machine and its full-width kernel on another with the same
// mask. Every lane marked in exact must match, every word outside the
// ranges must be left as it was, and each call must charge exactly what
// the full-width call charges: one scan.
func checkRangesMatchFullWidth(t *testing.T, v int, mask, heads []bool, data []Bit, ranges []WordRange, exact []uint64) {
	t.Helper()
	var full, part *Machine
	for _, m := range []**Machine{&full, &part} {
		var err error
		if *m, err = New(64, DefaultCosts()); err != nil {
			t.Fatal(err)
		}
		if _, err := (*m).Setup(v); err != nil {
			t.Fatal(err)
		}
		(*m).SetMask(func(pe int) bool { return mask[pe] })
	}
	nw := full.WordLen()
	dataV, headV, inside := make([]uint64, nw), make([]uint64, nw), make([]bool, nw)
	PackBits(dataV, data)
	PackBools(headV, heads)
	for _, r := range ranges {
		for w := r.Lo; w < r.Hi; w++ {
			inside[w] = true
		}
	}
	const untouched = 0x5a5a5a5a5a5a5a5a
	for _, k := range []struct {
		name       string
		full, part func(dst []uint64)
	}{
		{"CopySegHead",
			func(dst []uint64) { full.CopySegHeadV(dst, dataV, headV) },
			func(dst []uint64) { part.CopySegHeadRanges(dst, dataV, headV, ranges) }},
		{"SegReduceOrToHead",
			func(dst []uint64) { full.SegReduceOrToHeadV(dst, dataV, headV) },
			func(dst []uint64) { part.SegReduceOrToHeadRanges(dst, dataV, headV, ranges) }},
		{"SegReduceAndToHead",
			func(dst []uint64) { full.SegReduceAndToHeadV(dst, dataV, headV) },
			func(dst []uint64) { part.SegReduceAndToHeadRanges(dst, dataV, headV, ranges) }},
	} {
		want, got := make([]uint64, nw), make([]uint64, nw)
		for w := range got {
			got[w] = untouched
		}
		fullCycles, partCycles, partScans := full.Cycles, part.Cycles, part.ScanOps
		k.full(want)
		k.part(got)
		if part.ScanOps != partScans+1 || part.Cycles-partCycles != full.Cycles-fullCycles {
			t.Fatalf("%s: a Ranges call charged %d scans and %d cycles, want 1 scan and %d cycles",
				k.name, part.ScanOps-partScans, part.Cycles-partCycles, full.Cycles-fullCycles)
		}
		for w := range got {
			if diff := (got[w] ^ want[w]) & exact[w]; diff != 0 {
				t.Fatalf("%s: word %d, exact lanes %#x of %v: ranges %#x, full width %#x (v=%d)",
					k.name, w, exact[w], ranges, got[w], want[w], v)
			}
			if !inside[w] && got[w] != untouched {
				t.Fatalf("%s: word %d outside %v was written (v=%d)", k.name, w, ranges, v)
			}
		}
	}
	if full.Instr != part.Instr || full.RouterOps != part.RouterOps || full.ScanOps != part.ScanOps {
		t.Fatalf("counter drift: full width instr=%d routers=%d scans=%d, ranges %d/%d/%d",
			full.Instr, full.RouterOps, full.ScanOps, part.Instr, part.RouterOps, part.ScanOps)
	}
}

// rangeCase builds one random range case from seed: a v-lane vector
// with the given mask and head styles, random data, and random ranges
// with their exact lanes (randomRanges).
func rangeCase(seed uint64, v int, maskStyle, headStyle string) (mask, heads []bool, data []Bit, ranges []WordRange, exact []uint64) {
	r := &rng{s: seed}
	mask, heads = buildMask(maskStyle, v, r), buildHeads(headStyle, v, r)
	data = make([]Bit, v)
	for i := range data {
		if r.coin(50) {
			data[i] = 1
		}
	}
	ranges, exact = randomRanges(r, v, mask, heads)
	return mask, heads, data, ranges, exact
}

// TestRangeKernelsMatchFullWidth holds the Ranges entry points to their
// full-width kernels on random data, masks and segment heads, over
// random ranges whose exact span starts on a segment head and ends on a
// segment boundary, at a word edge or mid-word: equal on the span,
// untouched outside the ranges, and one scan charged per call.
func TestRangeKernelsMatchFullWidth(t *testing.T) {
	for _, v := range []int{1, 63, 64, 65, 129, 300, 517, 1024, 4096} {
		for _, ms := range maskStyles {
			for _, hs := range headStyles {
				t.Run(fmt.Sprintf("v=%d/mask=%s/heads=%s", v, ms, hs), func(t *testing.T) {
					for seed := uint64(0); seed < 4; seed++ {
						mask, heads, data, ranges, exact := rangeCase(uint64(v)*7919+seed, v, ms, hs)
						checkRangesMatchFullWidth(t, v, mask, heads, data, ranges, exact)
					}
				})
			}
		}
	}
}

// FuzzRangeKernelsMatchFullWidth is TestRangeKernelsMatchFullWidth's
// property over fuzzed seeds, sizes (1 + size mod 4096 lanes) and mask
// and head styles.
func FuzzRangeKernelsMatchFullWidth(f *testing.F) {
	f.Add(uint64(1), uint16(1024), uint8(0), uint8(2))
	f.Add(uint64(2), uint16(299), uint8(3), uint8(3))
	f.Add(uint64(3), uint16(64), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, maskStyle, headStyle uint8) {
		v := 1 + int(size)%4096
		ms, hs := maskStyles[int(maskStyle)%len(maskStyles)], headStyles[int(headStyle)%len(headStyles)]
		mask, heads, data, ranges, exact := rangeCase(seed, v, ms, hs)
		checkRangesMatchFullWidth(t, v, mask, heads, data, ranges, exact)
	})
}

// TestSteadyStateScansDoNotAllocate is the allocation regression test:
// writing into caller-owned vectors, the packed scan kernels and the
// byte API must not allocate per call.
func TestSteadyStateScansDoNotAllocate(t *testing.T) {
	m, err := New(PhysicalPEs, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Setup(PhysicalPEs); err != nil {
		t.Fatal(err)
	}
	v := m.V()
	data := make([]uint64, m.WordLen())
	head := make([]uint64, m.WordLen())
	dst := make([]uint64, m.WordLen())
	for w := range data {
		data[w] = 0xaaaa5555aaaa5555
		head[w] = 0x0000100000001000
	}

	if avg := testing.AllocsPerRun(20, func() {
		m.CopySegHeadV(dst, data, head)
		m.SegReduceOrToHeadV(dst, data, head)
		m.SegReduceAndToHeadV(dst, data, head)
	}); avg != 0 {
		t.Errorf("packed scan kernels allocate %v allocs/op in steady state, want 0", avg)
	}

	// The byte API writes a caller-owned dst too.
	bdata := make([]Bit, v)
	bhead := make([]bool, v)
	bdst := make([]Bit, v)
	if avg := testing.AllocsPerRun(20, func() {
		m.SegScanOr(bdst, bdata, bhead)
		m.SegReduceOrToHead(bdst, bdata, bhead)
		m.CopySegHead(bdst, bdata, bhead)
	}); avg != 0 {
		t.Errorf("byte-API scans allocate %v allocs/op in steady state, want 0", avg)
	}

	// The compiled-eval propagation sweeps share the contract: once the
	// network's evaluation scratch is warm, re-running a parse's unary
	// and binary passes — bytecode span sweeps included — allocates
	// nothing. (The network is at fixpoint after the warm-up, so the
	// re-runs evaluate every constraint without changing state.)
	g := grammars.PaperDemo()
	sent, err := cdg.Resolve(g, grammars.PaperSentence(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nw := cn.New(cdg.NewSpace(g, sent))
	for _, c := range g.Unary() {
		nw.ApplyUnary(c)
	}
	nw.ApplyBinaryAll(g.Binary())
	if avg := testing.AllocsPerRun(20, func() {
		for _, c := range g.Unary() {
			nw.ApplyUnary(c)
		}
		for _, c := range g.Binary() {
			nw.ApplyBinary(c)
		}
		nw.ApplyBinaryAll(g.Binary())
	}); avg != 0 {
		t.Errorf("compiled-eval propagation sweeps allocate %v allocs/op in steady state, want 0", avg)
	}
}
