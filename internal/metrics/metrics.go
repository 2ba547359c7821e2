// Package metrics provides the operation accounting shared by all
// parsing engines, the growth-rate estimation used by the Figure-8
// reproduction harness, and the one metrics layer of the serving
// stack: the latency Histogram and the Prometheus text format's parser
// (ParseText) and writer (Writer).
//
// Each engine charges abstract units that correspond to the quantities
// the paper reasons about: elementary constraint checks for the serial
// engine, synchronous steps for the P-RAM, and machine cycles for the
// MasPar simulator.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters accumulates the work performed during one parse. The zero
// value is ready to use.
type Counters struct {
	// ConstraintChecks counts single evaluations of a constraint
	// against one role value (unary) or one pair (binary).
	ConstraintChecks uint64
	// MatrixWrites counts arc-matrix bit writes.
	MatrixWrites uint64
	// SupportChecks counts role-value support tests during consistency
	// maintenance.
	SupportChecks uint64
	// Eliminations counts role values removed from their roles.
	Eliminations uint64
	// FilterIterations counts passes of consistency maintenance run by
	// the filtering phase.
	FilterIterations uint64
	// Steps counts synchronous machine steps (P-RAM) — one step is one
	// instruction executed by every active processor.
	Steps uint64
	// Cycles counts simulated machine cycles (MasPar).
	Cycles uint64
	// ScanOps counts segmented scan invocations (MasPar router).
	ScanOps uint64
	// RouterOps counts point-to-point router sends (MasPar).
	RouterOps uint64
	// Broadcasts counts ACU broadcast operations (MasPar).
	Broadcasts uint64
	// Processors records the processor count the computation was sized
	// for (P-RAM processors or MasPar virtual PEs).
	Processors uint64
	// VirtualLayers records ⌈virtual PEs / physical PEs⌉ on the MasPar.
	VirtualLayers uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.ConstraintChecks += o.ConstraintChecks
	c.MatrixWrites += o.MatrixWrites
	c.SupportChecks += o.SupportChecks
	c.Eliminations += o.Eliminations
	c.FilterIterations += o.FilterIterations
	c.Steps += o.Steps
	c.Cycles += o.Cycles
	c.ScanOps += o.ScanOps
	c.RouterOps += o.RouterOps
	c.Broadcasts += o.Broadcasts
	if o.Processors > c.Processors {
		c.Processors = o.Processors
	}
	if o.VirtualLayers > c.VirtualLayers {
		c.VirtualLayers = o.VirtualLayers
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// String renders the non-zero counters compactly.
func (c *Counters) String() string {
	var parts []string
	add := func(name string, v uint64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("checks", c.ConstraintChecks)
	add("writes", c.MatrixWrites)
	add("support", c.SupportChecks)
	add("elim", c.Eliminations)
	add("filter", c.FilterIterations)
	add("steps", c.Steps)
	add("cycles", c.Cycles)
	add("scans", c.ScanOps)
	add("router", c.RouterOps)
	add("bcast", c.Broadcasts)
	add("procs", c.Processors)
	add("layers", c.VirtualLayers)
	if len(parts) == 0 {
		return "(no work recorded)"
	}
	return strings.Join(parts, " ")
}

// Sample is one (n, cost) observation for growth fitting.
type Sample struct {
	N    int
	Cost float64
}

// FitExponent estimates b in cost ≈ a·n^b by least-squares regression in
// log–log space. It needs at least two samples with positive cost and
// distinct n; otherwise it returns ok=false.
func FitExponent(samples []Sample) (exponent float64, ok bool) {
	var xs, ys []float64
	for _, s := range samples {
		if s.N > 0 && s.Cost > 0 {
			xs = append(xs, math.Log(float64(s.N)))
			ys = append(ys, math.Log(s.Cost))
		}
	}
	if len(xs) < 2 {
		return 0, false
	}
	distinct := map[float64]bool{}
	for _, x := range xs {
		distinct[x] = true
	}
	if len(distinct) < 2 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

// FitLogSlope estimates b in cost ≈ a + b·log₂(n) by least squares.
// Used to confirm the MasPar engine's O(k + log n) behaviour.
func FitLogSlope(samples []Sample) (slope float64, ok bool) {
	var xs, ys []float64
	for _, s := range samples {
		if s.N > 0 {
			xs = append(xs, math.Log2(float64(s.N)))
			ys = append(ys, s.Cost)
		}
	}
	if len(xs) < 2 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

// Table is a minimal fixed-width text table builder used by the
// experiment harness so every figure/table prints uniformly.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// SortSamples orders samples by N ascending (in place) and returns them.
func SortSamples(s []Sample) []Sample {
	sort.Slice(s, func(i, j int) bool { return s[i].N < s[j].N })
	return s
}
