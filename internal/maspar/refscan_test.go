package maspar

import (
	"testing"
	"testing/quick"
)

func newTestMachine(t *testing.T, phys, v int) *Machine {
	t.Helper()
	m, err := New(phys, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Setup(v); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSetupLayers(t *testing.T) {
	m, _ := New(100, DefaultCosts())
	for _, tc := range []struct{ v, layers int }{
		{1, 1}, {100, 1}, {101, 2}, {200, 2}, {201, 3}, {16384, 164},
	} {
		l, err := m.Setup(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if l != tc.layers {
			t.Errorf("Setup(%d) layers = %d, want %d", tc.v, l, tc.layers)
		}
	}
	if _, err := m.Setup(0); err == nil {
		t.Error("Setup(0) should fail")
	}
}

func TestNewRejectsBadPE(t *testing.T) {
	if _, err := New(0, DefaultCosts()); err == nil {
		t.Error("New(0) should fail")
	}
}

func TestSegScanOrBasic(t *testing.T) {
	m := newTestMachine(t, 16, 8)
	data := []Bit{0, 1, 0, 0, 1, 0, 0, 0}
	head := []bool{true, false, false, false, true, false, false, false}
	got := make([]Bit, m.V())
	m.SegScanOr(got, data, head)
	want := []Bit{0, 1, 1, 1, 1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pe %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestSegScanAndBasic(t *testing.T) {
	m := newTestMachine(t, 16, 6)
	data := []Bit{1, 1, 0, 1, 1, 1}
	head := []bool{true, false, false, true, false, false}
	got := make([]Bit, m.V())
	m.SegScanAnd(got, data, head)
	want := []Bit{1, 1, 0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pe %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestScansSkipInactivePEs(t *testing.T) {
	m := newTestMachine(t, 16, 6)
	// Disable PE 1 (which holds a 1 that must not leak into the OR).
	m.SetMask(func(pe int) bool { return pe != 1 })
	data := []Bit{0, 1, 0, 0, 0, 0}
	head := []bool{true, false, false, false, false, false}
	got := make([]Bit, m.V())
	m.SegScanOr(got, data, head)
	for i, v := range got {
		if v != 0 {
			t.Errorf("pe %d: got %d, want 0 (inactive PE contributed)", i, v)
		}
	}
}

func TestSegHeadOnInactivePEIgnored(t *testing.T) {
	m := newTestMachine(t, 16, 5)
	// PE 2 would start a segment but is disabled; the segment must
	// continue across it.
	m.SetMask(func(pe int) bool { return pe != 2 })
	data := []Bit{1, 0, 0, 0, 0}
	head := []bool{true, false, true, false, false}
	got := make([]Bit, m.V())
	m.SegScanOr(got, data, head)
	if got[3] != 1 || got[4] != 1 {
		t.Errorf("segment should flow across the disabled head: %v", got)
	}
}

func TestSegReduceToHead(t *testing.T) {
	m := newTestMachine(t, 16, 8)
	data := []Bit{0, 1, 0, 0, 1, 1, 0, 0}
	head := []bool{true, false, false, false, true, false, true, false}
	or := make([]Bit, m.V())
	m.SegReduceOrToHead(or, data, head)
	wantOr := []Bit{1, 0, 0, 0, 1, 0, 0, 0}
	for i := range wantOr {
		if or[i] != wantOr[i] {
			t.Errorf("or pe %d: got %d want %d", i, or[i], wantOr[i])
		}
	}
	and := make([]Bit, m.V())
	m.SegReduceAndToHead(and, data, head)
	wantAnd := []Bit{0, 0, 0, 0, 1, 0, 0, 0}
	for i := range wantAnd {
		if and[i] != wantAnd[i] {
			t.Errorf("and pe %d: got %d want %d", i, and[i], wantAnd[i])
		}
	}
}

func TestCopySegHead(t *testing.T) {
	m := newTestMachine(t, 16, 6)
	data := []Bit{1, 0, 0, 0, 0, 0}
	head := []bool{true, false, false, true, false, false}
	got := make([]Bit, m.V())
	m.CopySegHead(got, data, head)
	want := []Bit{1, 1, 1, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pe %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestReduceOrAnd(t *testing.T) {
	m := newTestMachine(t, 16, 4)
	if m.ReduceOr([]Bit{0, 0, 0, 0}) != 0 {
		t.Error("ReduceOr all-zero")
	}
	if m.ReduceOr([]Bit{0, 0, 1, 0}) != 1 {
		t.Error("ReduceOr with one 1")
	}
	if m.ReduceAnd([]Bit{1, 1, 1, 1}) != 1 {
		t.Error("ReduceAnd all-one")
	}
	if m.ReduceAnd([]Bit{1, 0, 1, 1}) != 0 {
		t.Error("ReduceAnd with one 0")
	}
}

// TestByteKernelsClearDst: every byte kernel overwrites a dirty dst,
// so inactive PEs and lanes a kernel does not write read 0.
func TestByteKernelsClearDst(t *testing.T) {
	m := newTestMachine(t, 16, 6)
	m.SetMask(func(pe int) bool { return pe != 4 })
	data := []Bit{1, 1, 0, 1, 1, 1}
	head := []bool{true, false, false, true, false, false}
	src := []int32{5, 4, 3, 2, 1, 0}
	for _, tc := range []struct {
		name string
		run  func(dst []Bit)
		want []Bit
	}{
		{"SegScanOr", func(dst []Bit) { m.SegScanOr(dst, data, head) }, []Bit{1, 1, 1, 1, 0, 1}},
		{"SegScanAnd", func(dst []Bit) { m.SegScanAnd(dst, data, head) }, []Bit{1, 1, 0, 1, 0, 1}},
		{"SegReduceOrToHead", func(dst []Bit) { m.SegReduceOrToHead(dst, data, head) }, []Bit{1, 0, 0, 1, 0, 0}},
		{"SegReduceAndToHead", func(dst []Bit) { m.SegReduceAndToHead(dst, data, head) }, []Bit{0, 0, 0, 1, 0, 0}},
		{"CopySegHead", func(dst []Bit) { m.CopySegHead(dst, data, head) }, []Bit{1, 1, 1, 1, 0, 1}},
		{"RouterFetch", func(dst []Bit) { m.RouterFetch(dst, src, data) }, []Bit{1, 1, 1, 0, 0, 1}},
	} {
		dst := []Bit{7, 7, 7, 7, 7, 7}
		tc.run(dst)
		for i := range tc.want {
			if dst[i] != tc.want[i] {
				t.Errorf("%s: pe %d: got %d want %d", tc.name, i, dst[i], tc.want[i])
			}
		}
	}
}

func TestRouterFetchTranspose(t *testing.T) {
	// 3x3 grid transpose: pe = r*3+c fetches from c*3+r.
	m := newTestMachine(t, 16, 9)
	data := make([]Bit, 9)
	src := make([]int32, 9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			data[r*3+c] = Bit((r*3 + c) % 2)
			src[r*3+c] = int32(c*3 + r)
		}
	}
	got := make([]Bit, m.V())
	m.RouterFetch(got, src, data)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if got[r*3+c] != data[c*3+r] {
				t.Errorf("transpose (%d,%d) wrong", r, c)
			}
		}
	}
}

func TestCycleAccounting(t *testing.T) {
	m := newTestMachine(t, 1024, 2048) // 2 layers
	if m.Layers() != 2 {
		t.Fatalf("layers = %d", m.Layers())
	}
	c0 := m.Cycles
	m.All(func(pe int) {})
	oneAll := m.Cycles - c0
	if oneAll != DefaultCosts().Elemental*2 {
		t.Errorf("elemental charge = %d, want %d", oneAll, DefaultCosts().Elemental*2)
	}
	c0 = m.Cycles
	m.SegScanOr(make([]Bit, 2048), make([]Bit, 2048), make([]bool, 2048))
	scanCharge := m.Cycles - c0
	wantScan := (DefaultCosts().ScanBase + DefaultCosts().ScanPerLevel*10) * 2 // log2(1024)=10
	if scanCharge != wantScan {
		t.Errorf("scan charge = %d, want %d", scanCharge, wantScan)
	}
	if m.ScanOps != 1 || m.Instr != 1 {
		t.Errorf("op counters: scans=%d instr=%d", m.ScanOps, m.Instr)
	}
}

func TestModelTime(t *testing.T) {
	m := newTestMachine(t, 16, 16)
	m.Cycles = uint64(ClockHz) // exactly one second of cycles
	if got := m.ModelTime().Seconds(); got < 0.999 || got > 1.001 {
		t.Errorf("ModelTime = %v, want ~1s", got)
	}
}

func TestAllRunsOnlyActive(t *testing.T) {
	m := newTestMachine(t, 16, 10)
	m.SetMask(func(pe int) bool { return pe%2 == 0 })
	hits := make([]Bit, 10)
	m.All(func(pe int) { hits[pe] = 1 })
	for pe, h := range hits {
		want := Bit(0)
		if pe%2 == 0 {
			want = 1
		}
		if h != want {
			t.Errorf("pe %d executed=%d, want %d", pe, h, want)
		}
	}
	m.EnableAll()
	m.All(func(pe int) { hits[pe] = 2 })
	for pe, h := range hits {
		if h != 2 {
			t.Errorf("pe %d after EnableAll: %d", pe, h)
		}
	}
}

// reference segment OR for the property test.
func refSegOr(data []Bit, head []bool, enabled []bool) []Bit {
	out := make([]Bit, len(data))
	var acc Bit
	open := false
	for i := range data {
		if !enabled[i] {
			continue
		}
		if head[i] || !open {
			acc = 0
			open = true
		}
		acc |= data[i]
		out[i] = acc
	}
	return out
}

func TestQuickSegScanOrMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		s := seed | 1
		rnd := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v := int(s % int64(n))
			if v < 0 {
				v = -v
			}
			return v
		}
		v := rnd(200) + 1
		m := newTestMachine(t, 64, v)
		data := make([]Bit, v)
		head := make([]bool, v)
		mask := make([]bool, v)
		for i := 0; i < v; i++ {
			data[i] = Bit(rnd(2))
			head[i] = rnd(4) == 0
			mask[i] = rnd(5) != 0
		}
		m.SetMask(func(pe int) bool { return mask[pe] })
		got := make([]Bit, m.V())
		m.SegScanOr(got, data, head)
		want := refSegOr(data, head, mask)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReduceConsistentWithScan: the last element of each segment's
// inclusive scan equals the head-deposited reduction.
func TestQuickReduceConsistentWithScan(t *testing.T) {
	f := func(seed int64) bool {
		s := seed | 1
		rnd := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v := int(s % int64(n))
			if v < 0 {
				v = -v
			}
			return v
		}
		v := rnd(100) + 1
		m := newTestMachine(t, 32, v)
		data := make([]Bit, v)
		head := make([]bool, v)
		for i := 0; i < v; i++ {
			data[i] = Bit(rnd(2))
			head[i] = rnd(3) == 0
		}
		head[0] = true
		scan := make([]Bit, m.V())
		m.SegScanOr(scan, data, head)
		reduced := make([]Bit, m.V())
		m.SegReduceOrToHead(reduced, data, head)
		// Walk segments; compare the reduction at each head with the
		// scan value at the segment's last PE.
		lastOf := map[int]int{}
		curHead := -1
		for pe := 0; pe < v; pe++ {
			if head[pe] {
				curHead = pe
			}
			lastOf[curHead] = pe
		}
		for h, last := range lastOf {
			if reduced[h] != scan[last] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
