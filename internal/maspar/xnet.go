package maspar

// The MP-1's second communication fabric: the X-Net, a toroidal
// 8-neighbor mesh over the physical 128×128 PE grid. MPL exposes the
// PE array both as a linear array and as a two-dimensional grid
// ("MPL allows the programmer to view the PEs in two ways"); PARSEC
// uses the linear view and the router, but the X-Net is part of the
// machine and other MPL programs (and our tests/benches) exercise it.
//
// We model the X-Net over the *virtual* PE array arranged row-major in
// a grid of the machine's choosing. An X-Net shift moves every active
// PE's value one step in a compass direction, toroidally. Cost: one
// cheap neighbor hop per instruction (virtualized like everything
// else), far cheaper than a router pass — which is exactly the
// trade-off that makes the router's scans remarkable.

import "fmt"

// Direction is a compass direction for X-Net shifts.
type Direction int

// The eight X-Net directions.
const (
	North Direction = iota
	South
	East
	West
	NorthEast
	NorthWest
	SouthEast
	SouthWest
)

func (d Direction) String() string {
	switch d {
	case North:
		return "N"
	case South:
		return "S"
	case East:
		return "E"
	case West:
		return "W"
	case NorthEast:
		return "NE"
	case NorthWest:
		return "NW"
	case SouthEast:
		return "SE"
	case SouthWest:
		return "SW"
	}
	return "?"
}

func (d Direction) delta() (dr, dc int) {
	switch d {
	case North:
		return -1, 0
	case South:
		return 1, 0
	case East:
		return 0, 1
	case West:
		return 0, -1
	case NorthEast:
		return -1, 1
	case NorthWest:
		return -1, -1
	case SouthEast:
		return 1, 1
	case SouthWest:
		return 1, -1
	}
	return 0, 0
}

// Grid is a 2-D view of the virtual PE array (rows×cols = V), the MPL
// "128×128 grid" perspective.
type Grid struct {
	m          *Machine
	rows, cols int
}

// GridView arranges the machine's virtual PEs as a rows×cols toroidal
// grid. rows·cols must equal V.
func (m *Machine) GridView(rows, cols int) (*Grid, error) {
	if rows <= 0 || cols <= 0 || rows*cols != m.v {
		return nil, fmt.Errorf("maspar: grid %dx%d does not cover %d virtual PEs", rows, cols, m.v)
	}
	return &Grid{m: m, rows: rows, cols: cols}, nil
}

// Rows returns the grid height.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the grid width.
func (g *Grid) Cols() int { return g.cols }

// PE returns the linear PE index of grid cell (r, c), toroidally
// wrapped.
func (g *Grid) PE(r, c int) int {
	r = ((r % g.rows) + g.rows) % g.rows
	c = ((c % g.cols) + g.cols) % g.cols
	return r*g.cols + c
}

// xnetCost is the cycle price of one neighbor hop (cheap, unlike the
// router).
const xnetCost = 8

// Shift moves data one X-Net hop: every active PE receives the value
// of its neighbor in the *opposite* of dir (i.e. values travel in
// direction dir), toroidally. Inactive PEs receive zero and do not
// transmit restrictions — like the real X-Net, the wire carries the
// neighbor's register regardless of its activity bit; masking governs
// only who stores the result.
func (g *Grid) Shift(data []Bit, dir Direction) []Bit {
	m := g.m
	m.Instr++
	m.Cycles += xnetCost * uint64(m.layer)
	dr, dc := dir.delta()
	out := make([]Bit, m.v)
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		r, c := pe/g.cols, pe%g.cols
		src := g.PE(r-dr, c-dc)
		out[pe] = data[src]
	}
	return out
}

// ShiftInt32 is Shift for 32-bit plural data.
func (g *Grid) ShiftInt32(data []int32, dir Direction) []int32 {
	m := g.m
	m.Instr++
	m.Cycles += xnetCost * 4 * uint64(m.layer) // 4-bit PEs move wide data in nibbles
	dr, dc := dir.delta()
	out := make([]int32, m.v)
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		r, c := pe/g.cols, pe%g.cols
		src := g.PE(r-dr, c-dc)
		out[pe] = data[src]
	}
	return out
}

// RowReduceOr ORs each grid row using log₂(cols) X-Net hops (the
// doubling trick), depositing the row OR in every cell of the row.
// It returns the result and performs ⌈log₂ cols⌉ shift instructions.
func (g *Grid) RowReduceOr(data []Bit) []Bit {
	cur := make([]Bit, len(data))
	copy(cur, data)
	for step := 1; step < g.cols; step *= 2 {
		shifted := g.shiftByCols(cur, step)
		for i := range cur {
			cur[i] |= shifted[i]
		}
		g.m.Instr++ // the OR combine
		g.m.Cycles += uint64(g.m.costs.Elemental) * uint64(g.m.layer)
	}
	return cur
}

// shiftByCols moves values step columns eastward (toroidal), charged as
// one hop per call (the MP-1 supports distance-1 hops; multi-distance
// is hop-sequenced — we charge log-many calls total from RowReduceOr).
func (g *Grid) shiftByCols(data []Bit, step int) []Bit {
	m := g.m
	m.Instr++
	m.Cycles += xnetCost * uint64(m.layer)
	out := make([]Bit, m.v)
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		r, c := pe/g.cols, pe%g.cols
		out[pe] = data[g.PE(r, c-step)]
	}
	return out
}

// SegScanAdd performs an inclusive segmented integer sum scan through
// the router (the MP-1's scanAdd primitive). Same segment semantics as
// SegScanOr.
func (m *Machine) SegScanAdd(data []int32, segHead []bool) []int32 {
	m.chargeScan()
	out := make([]int32, m.v)
	var acc int32
	open := false
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || !open {
			acc = 0
			open = true
		}
		acc += data[pe]
		out[pe] = acc
	}
	return out
}

// SegScanMax performs an inclusive segmented max scan.
func (m *Machine) SegScanMax(data []int32, segHead []bool) []int32 {
	m.chargeScan()
	out := make([]int32, m.v)
	acc := int32(-1 << 31)
	open := false
	for pe := 0; pe < m.v; pe++ {
		if !m.Enabled(pe) {
			continue
		}
		if segHead[pe] || !open {
			acc = -1 << 31
			open = true
		}
		if data[pe] > acc {
			acc = data[pe]
		}
		out[pe] = acc
	}
	return out
}

// ReduceAdd sums over all active PEs (delivered to the ACU).
func (m *Machine) ReduceAdd(data []int32) int64 {
	m.chargeScan()
	var acc int64
	for pe := 0; pe < m.v; pe++ {
		if m.Enabled(pe) {
			acc += int64(data[pe])
		}
	}
	return acc
}

// Enumerate gives each active PE its rank among active PEs (0-based),
// the standard enumerate() = scanAdd(1) − 1 idiom used for compaction.
func (m *Machine) Enumerate() []int32 {
	m.chargeScan()
	out := make([]int32, m.v)
	var rank int32
	for pe := 0; pe < m.v; pe++ {
		if m.Enabled(pe) {
			out[pe] = rank
			rank++
		}
	}
	return out
}
