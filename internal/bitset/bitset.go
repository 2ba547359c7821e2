// Package bitset provides the dense bit vectors and bit matrices that
// back role-value domains and arc matrices in every parsing engine.
// Matrices deliberately never change dimensions — rows and columns are
// zeroed instead of removed, matching design decision #4 of the paper —
// so a Matrix allocated at network-construction time lives unchanged for
// the whole parse.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Set is a fixed-size bit vector. The zero value is an empty, zero-size
// set; use New for a sized one.
type Set struct {
	bits []uint64
	n    int
}

// New returns a Set of n bits, all zero.
func New(n int) *Set {
	return &Set{bits: make([]uint64, Words(n)), n: n}
}

// NewFull returns a Set of n bits, all one.
func NewFull(n int) *Set {
	s := New(n)
	for i := range s.bits {
		s.bits[i] = ^uint64(0)
	}
	s.trim()
	return s
}

func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.bits) > 0 {
		s.bits[len(s.bits)-1] &= (1 << uint(s.n%wordBits)) - 1
	}
}

// Len returns the size in bits.
func (s *Set) Len() int { return s.n }

// Get reports bit i.
func (s *Set) Get(i int) bool {
	return s.bits[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetBit sets bit i to 1.
func (s *Set) SetBit(i int) {
	s.bits[i/wordBits] |= 1 << uint(i%wordBits)
}

// ClearBit sets bit i to 0.
func (s *Set) ClearBit(i int) {
	s.bits[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Assign sets bit i to v.
func (s *Set) Assign(i int, v bool) {
	if v {
		s.SetBit(i)
	} else {
		s.ClearBit(i)
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{bits: make([]uint64, len(s.bits)), n: s.n}
	copy(c.bits, s.bits)
	return c
}

// Equal reports whether s and o have identical size and contents.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// IsSubset reports whether every set bit of s is also set in o.
func (s *Set) IsSubset(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.bits {
		if s.bits[i]&^o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// The word-wise set operations below take operands of the same size as
// the receiver and may alias it (s.And(s, o) is s &= o).

// Zero clears every bit of s.
//
//parsec:noalloc
func (s *Set) Zero() {
	clear(s.bits)
}

// CopyFrom sets s to o.
//
//parsec:noalloc
func (s *Set) CopyFrom(o *Set) {
	copy(s.bits, o.bits)
}

// And sets s to x & y.
//
//parsec:noalloc
func (s *Set) And(x, y *Set) {
	for i := range s.bits {
		s.bits[i] = x.bits[i] & y.bits[i]
	}
}

// AndNot sets s to x &^ y.
//
//parsec:noalloc
func (s *Set) AndNot(x, y *Set) {
	for i := range s.bits {
		s.bits[i] = x.bits[i] &^ y.bits[i]
	}
}

// ForEach calls f with the index of every set bit, ascending.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.bits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// Ones returns the indices of all set bits, ascending.
func (s *Set) Ones() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders like "{1 5 9}/12".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	fmt.Fprintf(&b, "}/%d", s.n)
	return b.String()
}

// Matrix is a fixed-size bit matrix with row-major packed storage.
type Matrix struct {
	rows, cols int
	rowWords   int
	bits       []uint64
}

// NewMatrix returns a rows×cols matrix of zeros.
func NewMatrix(rows, cols int) *Matrix {
	rw := Words(cols)
	return &Matrix{rows: rows, cols: cols, rowWords: rw, bits: make([]uint64, rows*rw)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// Get reports entry (r, c).
func (m *Matrix) Get(r, c int) bool {
	return m.bits[r*m.rowWords+c/wordBits]&(1<<uint(c%wordBits)) != 0
}

// SetBit sets entry (r, c) to 1.
func (m *Matrix) SetBit(r, c int) {
	m.bits[r*m.rowWords+c/wordBits] |= 1 << uint(c%wordBits)
}

// ClearBit sets entry (r, c) to 0.
func (m *Matrix) ClearBit(r, c int) {
	m.bits[r*m.rowWords+c/wordBits] &^= 1 << uint(c%wordBits)
}

// Assign sets entry (r, c) to v.
func (m *Matrix) Assign(r, c int, v bool) {
	if v {
		m.SetBit(r, c)
	} else {
		m.ClearBit(r, c)
	}
}

// RowAny reports whether row r contains any 1.
func (m *Matrix) RowAny(r int) bool {
	row := m.bits[r*m.rowWords : (r+1)*m.rowWords]
	for _, w := range row {
		if w != 0 {
			return true
		}
	}
	return false
}

// ColAny reports whether column c contains any 1.
func (m *Matrix) ColAny(c int) bool {
	word, mask := c/wordBits, uint64(1)<<uint(c%wordBits)
	for r := 0; r < m.rows; r++ {
		if m.bits[r*m.rowWords+word]&mask != 0 {
			return true
		}
	}
	return false
}

// ZeroRow clears every entry of row r.
func (m *Matrix) ZeroRow(r int) {
	row := m.bits[r*m.rowWords : (r+1)*m.rowWords]
	for i := range row {
		row[i] = 0
	}
}

// ZeroCol clears every entry of column c.
func (m *Matrix) ZeroCol(c int) {
	word, mask := c/wordBits, uint64(1)<<uint(c%wordBits)
	for r := 0; r < m.rows; r++ {
		m.bits[r*m.rowWords+word] &^= mask
	}
}

// ZeroRows clears every row of m whose index is set in rows, a set of
// m.Rows() bits.
//
//parsec:noalloc
func (m *Matrix) ZeroRows(rows *Set) {
	for wi, w := range rows.bits {
		for ; w != 0; w &= w - 1 {
			r := wi*wordBits + bits.TrailingZeros64(w)
			clear(m.bits[r*m.rowWords : (r+1)*m.rowWords])
		}
	}
}

// ClearCols clears the columns set in cols (m.Cols() bits) in every row
// of m set in rows (m.Rows() bits): one masked pass over the selected
// rows, where ZeroCol makes one strided pass over all rows per column.
// Rows outside rows are left as they are.
//
//parsec:noalloc
func (m *Matrix) ClearCols(rows, cols *Set) {
	for wi, w := range rows.bits {
		for ; w != 0; w &= w - 1 {
			r := wi*wordBits + bits.TrailingZeros64(w)
			row := m.bits[r*m.rowWords : (r+1)*m.rowWords]
			for k, c := range cols.bits {
				row[k] &^= c
			}
		}
	}
}

// Support reads the rows of m set in rows (m.Rows() bits) once each:
// rowSup (m.Rows() bits) gets bit r for every such row holding a 1, and
// colSup (m.Cols() bits) becomes their OR, with bit c set when column c
// holds a 1 in one of them. Both are overwritten. Skipped rows do not
// count, so colSup is the column support of the whole matrix only when
// rows covers every row that holds a 1.
//
//parsec:noalloc
func (m *Matrix) Support(rows, rowSup, colSup *Set) {
	clear(rowSup.bits)
	clear(colSup.bits)
	for wi, w := range rows.bits {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			r := wi*wordBits + b
			var nz uint64
			for k, x := range m.bits[r*m.rowWords : (r+1)*m.rowWords] {
				colSup.bits[k] |= x
				nz |= x
			}
			if nz != 0 {
				rowSup.bits[wi] |= 1 << uint(b)
			}
		}
	}
}

// RowCount returns the number of 1s in row r.
func (m *Matrix) RowCount(r int) int {
	row := m.bits[r*m.rowWords : (r+1)*m.rowWords]
	c := 0
	for _, w := range row {
		c += bits.OnesCount64(w)
	}
	return c
}

// Count returns the number of 1s in the whole matrix.
func (m *Matrix) Count() int {
	c := 0
	for _, w := range m.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, rowWords: m.rowWords, bits: make([]uint64, len(m.bits))}
	copy(c.bits, m.bits)
	return c
}

// Equal reports dimensional and content equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// RowForEach calls f for every set column index in row r, ascending.
func (m *Matrix) RowForEach(r int, f func(c int)) {
	row := m.bits[r*m.rowWords : (r+1)*m.rowWords]
	for wi, w := range row {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			c := wi*wordBits + b
			if c < m.cols {
				f(c)
			}
			w &^= 1 << uint(b)
		}
	}
}
