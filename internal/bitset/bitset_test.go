package bitset

import (
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	} {
		if got := Words(tc.n); got != tc.want {
			t.Errorf("Words(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Any() || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		s.SetBit(i)
	}
	if s.Count() != 4 {
		t.Errorf("count = %d", s.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Get(1) || s.Get(65) {
		t.Error("unexpected bits set")
	}
	s.ClearBit(64)
	if s.Get(64) || s.Count() != 3 {
		t.Error("clear failed")
	}
	s.Assign(64, true)
	s.Assign(0, false)
	want := []int{63, 64, 129}
	got := s.Ones()
	if len(got) != len(want) {
		t.Fatalf("ones = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ones[%d] = %d want %d", i, got[i], want[i])
		}
	}
}

func TestNewFullTrimsTail(t *testing.T) {
	s := NewFull(70)
	if s.Count() != 70 {
		t.Errorf("NewFull(70).Count() = %d", s.Count())
	}
	s2 := NewFull(64)
	if s2.Count() != 64 {
		t.Errorf("NewFull(64).Count() = %d", s2.Count())
	}
}

func TestCloneEqualSubset(t *testing.T) {
	s := New(100)
	s.SetBit(3)
	s.SetBit(77)
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone should be equal")
	}
	c.SetBit(50)
	if s.Equal(c) {
		t.Error("clone mutation leaked")
	}
	if !s.IsSubset(c) {
		t.Error("s ⊆ c")
	}
	if c.IsSubset(s) {
		t.Error("c ⊄ s")
	}
	other := New(99)
	if s.Equal(other) || s.IsSubset(other) {
		t.Error("size mismatch must fail")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{5, 64, 65, 128, 199}
	for _, i := range want {
		s.SetBit(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("index %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestSetString(t *testing.T) {
	s := New(12)
	s.SetBit(1)
	s.SetBit(5)
	if got := s.String(); got != "{1 5}/12" {
		t.Errorf("String() = %q", got)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5, 70)
	if m.Rows() != 5 || m.Cols() != 70 {
		t.Fatal("dims")
	}
	m.SetBit(0, 0)
	m.SetBit(2, 69)
	m.SetBit(4, 64)
	if !m.Get(2, 69) || m.Get(2, 68) {
		t.Error("get/set broken near word boundary")
	}
	if m.Count() != 3 {
		t.Errorf("count = %d", m.Count())
	}
	if !m.RowAny(2) || m.RowAny(1) {
		t.Error("RowAny")
	}
	if !m.ColAny(64) || m.ColAny(65) {
		t.Error("ColAny")
	}
	if m.RowCount(2) != 1 || m.RowCount(3) != 0 {
		t.Error("RowCount")
	}
	m.Assign(1, 1, true)
	m.Assign(1, 1, false)
	if m.Get(1, 1) {
		t.Error("Assign")
	}
}

func TestMatrixZeroRowCol(t *testing.T) {
	m := NewMatrix(4, 100)
	for r := 0; r < 4; r++ {
		for c := 0; c < 100; c++ {
			m.SetBit(r, c)
		}
	}
	m.ZeroRow(2)
	if m.RowAny(2) {
		t.Error("ZeroRow left bits")
	}
	if !m.RowAny(1) {
		t.Error("ZeroRow cleared neighbors")
	}
	m.ZeroCol(64)
	for r := 0; r < 4; r++ {
		if m.Get(r, 64) {
			t.Errorf("ZeroCol left bit at row %d", r)
		}
	}
	if !m.Get(1, 63) || !m.Get(1, 65) {
		t.Error("ZeroCol cleared neighbors")
	}
}

func TestMatrixCloneEqual(t *testing.T) {
	m := NewMatrix(3, 3)
	m.SetBit(1, 2)
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone equal")
	}
	c.ClearBit(1, 2)
	if m.Equal(c) {
		t.Error("clone aliased")
	}
	if m.Equal(NewMatrix(3, 4)) {
		t.Error("dim mismatch")
	}
}

func TestMatrixRowForEach(t *testing.T) {
	m := NewMatrix(2, 130)
	want := []int{0, 63, 64, 129}
	for _, c := range want {
		m.SetBit(1, c)
	}
	var got []int
	m.RowForEach(1, func(c int) { got = append(got, c) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RowForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	m.RowForEach(0, func(c int) { t.Error("empty row visited") })
}

// TestQuickSetModel compares the bitset against a map[int]bool model
// under a random op sequence.
func TestQuickSetModel(t *testing.T) {
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
		n := rnd(300) + 1
		set := New(n)
		model := map[int]bool{}
		for op := 0; op < 200; op++ {
			i := rnd(n)
			switch rnd(3) {
			case 0:
				set.SetBit(i)
				model[i] = true
			case 1:
				set.ClearBit(i)
				delete(model, i)
			case 2:
				if set.Get(i) != model[i] {
					return false
				}
			}
		}
		if set.Count() != len(model) {
			return false
		}
		ok := true
		set.ForEach(func(i int) {
			if !model[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMatrixRowColConsistency: RowAny/ColAny agree with Get scans.
func TestQuickMatrixRowColConsistency(t *testing.T) {
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
		rows, cols := rnd(8)+1, rnd(130)+1
		m := NewMatrix(rows, cols)
		for i := 0; i < 50; i++ {
			m.SetBit(rnd(rows), rnd(cols))
		}
		for r := 0; r < rows; r++ {
			any := false
			for c := 0; c < cols; c++ {
				any = any || m.Get(r, c)
			}
			if m.RowAny(r) != any {
				return false
			}
		}
		for c := 0; c < cols; c++ {
			any := false
			for r := 0; r < rows; r++ {
				any = any || m.Get(r, c)
			}
			if m.ColAny(c) != any {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWordKernelsMatchPerBit holds the word-wise kernels to their
// per-bit definitions on random matrices and row/column sets: Support
// to RowAny/ColAny over the selected rows, ZeroRows to ZeroRow,
// ClearCols to clearing each selected bit, and And/AndNot/CopyFrom to
// Get.
func TestQuickWordKernelsMatchPerBit(t *testing.T) {
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
		rows, cols := rnd(140)+1, rnd(200)+1
		m := NewMatrix(rows, cols)
		for i := rnd(4 * rows * cols / 3); i > 0; i-- {
			m.SetBit(rnd(rows), rnd(cols))
		}
		randSet := func(n int) *Set {
			x := New(n)
			for i := 0; i < n; i++ {
				if rnd(3) != 0 {
					x.SetBit(i)
				}
			}
			return x
		}
		live, victims := randSet(rows), randSet(cols)

		rowSup, colSup := randSet(rows), randSet(cols) // overwritten
		m.Support(live, rowSup, colSup)
		for r := 0; r < rows; r++ {
			if rowSup.Get(r) != (live.Get(r) && m.RowAny(r)) {
				t.Logf("rowSup bit %d", r)
				return false
			}
		}
		for c := 0; c < cols; c++ {
			want := false
			live.ForEach(func(r int) { want = want || m.Get(r, c) })
			if colSup.Get(c) != want {
				t.Logf("colSup bit %d", c)
				return false
			}
		}

		want := m.Clone()
		live.ForEach(func(r int) {
			victims.ForEach(func(c int) { want.ClearBit(r, c) })
		})
		m.ClearCols(live, victims)
		if !m.Equal(want) {
			t.Log("ClearCols")
			return false
		}
		live.ForEach(want.ZeroRow)
		m.ZeroRows(live)
		if !m.Equal(want) {
			t.Log("ZeroRows")
			return false
		}

		x, y, z := randSet(cols), randSet(cols), New(cols)
		z.And(x, y)
		for i := 0; i < cols; i++ {
			if z.Get(i) != (x.Get(i) && y.Get(i)) {
				return false
			}
		}
		z.AndNot(x, y)
		for i := 0; i < cols; i++ {
			if z.Get(i) != (x.Get(i) && !y.Get(i)) {
				return false
			}
		}
		x.AndNot(x, x)
		z.CopyFrom(x)
		return !x.Any() && !z.Any()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
