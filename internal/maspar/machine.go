// Package maspar simulates the MasPar MP-1 as the paper uses it: a
// massively parallel SIMD machine with up to 16,384 processing elements
// viewed as a linear array, an ACU (Array Control Unit) that broadcasts
// instructions and data, an activity mask, a global router, and the
// router-backed segmented scanOr()/scanAnd() primitives that give the
// algorithm its O(log n) consistency maintenance.
//
// Programming model. Plural (per-PE) data lives in ordinary Go slices
// indexed by virtual PE number; the machine's methods are the
// "instructions" the ACU broadcasts. Each instruction is charged to a
// cycle counter under a configurable cost model, including the
// virtualization multiplier of section 2.2.3: with V virtual PEs on P
// physical PEs, every instruction costs ⌈V/P⌉ times its base price
// because each physical PE emulates that many virtual PEs ("MPL does
// not support transparent processor virtualization" — this package
// does, and charges for it).
//
// Two plural representations coexist. The reference representation is
// one byte per PE ([]Bit) with the scalar kernels of refscan.go; the
// hot representation packs 64 PEs into each uint64 word ([]uint64,
// LSB = lowest PE) with the word-parallel kernels of packed.go. Both
// charge identical cycles — how the *host* computes a lockstep
// instruction is a simulation detail, not a model change — and the
// property tests in packed_test.go hold them bit-identical.
//
// Every instruction runs as one plain host loop on the caller's
// goroutine; semantics are lockstep SIMD (an instruction's reads all
// precede its writes only when the instruction itself needs that, which
// scans and router sends guarantee internally), and results are
// bit-deterministic. Host parallelism belongs to the caller: the
// serving pool runs one parse per worker.
package maspar

import (
	"fmt"
	"math/bits"
	"time"
)

// PhysicalPEs is the full MP-1 configuration used in the paper.
const PhysicalPEs = 16384

// ClockHz is the MP-1's nominal clock rate (12.5 MHz).
const ClockHz = 12.5e6

// CostModel prices each instruction class in machine cycles. The
// defaults are calibrated in EXPERIMENTS.md so that the demo parse
// lands in the regime the paper reports (§3); the asymptotic shape is
// independent of the constants.
type CostModel struct {
	// Elemental is one broadcast ALU macro-instruction over the PE
	// array (a 32-bit op takes many cycles on 4-bit PEs).
	Elemental uint64
	// ConstraintCheck is one constraint evaluated against one role
	// value or pair inside a PE (the ACU broadcasts the constraint
	// program; the PE interprets it on local data).
	ConstraintCheck uint64
	// ScanBase + ScanPerLevel·log₂(P) is one segmented scan through
	// the global router.
	ScanBase     uint64
	ScanPerLevel uint64
	// RouterBase + RouterPerLevel·log₂(P) is one router permutation.
	RouterBase     uint64
	RouterPerLevel uint64
	// Broadcast is one ACU data broadcast.
	Broadcast uint64
}

// DefaultCosts is the calibrated cost model (see EXPERIMENTS.md E3).
func DefaultCosts() CostModel {
	return CostModel{
		Elemental:       60,
		ConstraintCheck: 12000,
		ScanBase:        600,
		ScanPerLevel:    110,
		RouterBase:      800,
		RouterPerLevel:  130,
		Broadcast:       40,
	}
}

// Machine is one simulated MP-1.
type Machine struct {
	phys  int
	v     int
	nw    int // words per packed plural vector, ⌈v/64⌉
	layer int
	costs CostModel

	// mask is the packed activity mask: bit pe&63 of word pe>>6 is PE
	// pe's activity bit. Tail bits beyond v are always zero. valid is
	// the all-real-lanes image the mask resets to; SetMask intersects
	// with it so a tail bit can never activate.
	mask  []uint64
	valid []uint64

	// Cycles is the simulated machine-cycle total.
	Cycles uint64
	// Instr counts elemental instructions, ScanOps segmented scans,
	// RouterOps router permutations, Broadcasts ACU broadcasts, and
	// ConstraintChecks per-PE constraint evaluations.
	Instr            uint64
	ScanOps          uint64
	RouterOps        uint64
	Broadcasts       uint64
	ConstraintChecks uint64
}

// New builds a machine with phys physical PEs (use PhysicalPEs for the
// paper's configuration).
func New(phys int, costs CostModel) (*Machine, error) {
	if phys <= 0 {
		return nil, fmt.Errorf("maspar: need a positive PE count, got %d", phys)
	}
	return &Machine{phys: phys, costs: costs}, nil
}

// Setup sizes the virtual PE array for a program and enables every PE.
// It returns the virtualization layer count ⌈v/phys⌉.
func (m *Machine) Setup(v int) (layers int, err error) {
	if v <= 0 {
		return 0, fmt.Errorf("maspar: need a positive virtual PE count, got %d", v)
	}
	m.v = v
	m.nw = WordsFor(v)
	m.layer = (v + m.phys - 1) / m.phys
	m.valid = make([]uint64, m.nw)
	for w := range m.valid {
		m.valid[w] = ^uint64(0)
	}
	if tail := uint(v & 63); tail != 0 {
		m.valid[m.nw-1] = (uint64(1) << tail) - 1
	}
	m.mask = make([]uint64, m.nw)
	m.fillMask()
	return m.layer, nil
}

// fillMask enables every real PE (tail bits stay zero).
func (m *Machine) fillMask() {
	copy(m.mask, m.valid)
}

// V returns the virtual PE count of the current program.
func (m *Machine) V() int { return m.v }

// WordLen returns the length in uint64 words of a packed plural vector
// covering the current program's V PEs.
func (m *Machine) WordLen() int { return m.nw }

// Phys returns the physical PE count.
func (m *Machine) Phys() int { return m.phys }

// Layers returns the virtualization multiplier ⌈V/P⌉.
func (m *Machine) Layers() int { return m.layer }

// logPhys returns ⌈log₂ P⌉ (the scan/router depth).
//
//parsec:noalloc
func (m *Machine) logPhys() uint64 {
	return uint64(bits.Len(uint(m.phys - 1)))
}

//parsec:noalloc
func (m *Machine) chargeElemental() {
	m.Instr++
	m.Cycles += m.costs.Elemental * uint64(m.layer)
}

//parsec:noalloc
func (m *Machine) chargeChecks(perPE uint64) {
	m.ConstraintChecks += perPE * uint64(m.v)
	m.Cycles += m.costs.ConstraintCheck * perPE * uint64(m.layer)
}

//parsec:noalloc
func (m *Machine) chargeScan() {
	m.ScanOps++
	m.Cycles += (m.costs.ScanBase + m.costs.ScanPerLevel*m.logPhys()) * uint64(m.layer)
}

//parsec:noalloc
func (m *Machine) chargeRouter() {
	m.RouterOps++
	m.Cycles += (m.costs.RouterBase + m.costs.RouterPerLevel*m.logPhys()) * uint64(m.layer)
}

// BroadcastData charges one ACU broadcast (the data itself is whatever
// the caller closes over; on the real machine it streams to all PEs).
func (m *Machine) BroadcastData() {
	m.Broadcasts++
	m.Cycles += m.costs.Broadcast * uint64(m.layer)
}

// ModelTime converts the accumulated cycles to simulated wall-clock
// seconds at the MP-1's clock rate.
func (m *Machine) ModelTime() time.Duration {
	return time.Duration(float64(m.Cycles) / ClockHz * float64(time.Second))
}

// SetMask recomputes the activity mask: PE i is active iff pred(i).
// Charged as one elemental instruction (a plural comparison).
func (m *Machine) SetMask(pred func(pe int) bool) {
	m.chargeElemental()
	for w := range m.mask {
		base := w << 6
		lim := m.v - base
		if lim > 64 {
			lim = 64
		}
		var x uint64
		for b := 0; b < lim; b++ {
			if pred(base + b) {
				x |= uint64(1) << uint(b)
			}
		}
		m.mask[w] = x & m.valid[w]
	}
}

// SetMaskWords loads a precomputed packed activity mask (len WordLen;
// tail bits beyond V must be zero). Charged as one elemental instruction,
// exactly like SetMask — precomputing the mask words is a host-side
// shortcut for a plural comparison the ACU would broadcast.
func (m *Machine) SetMaskWords(words []uint64) {
	m.chargeElemental()
	copy(m.mask, words)
}

// EnableAll reactivates every PE.
func (m *Machine) EnableAll() {
	m.chargeElemental()
	m.fillMask()
}

// Enabled reports PE pe's activity bit.
//
//parsec:noalloc
func (m *Machine) Enabled(pe int) bool {
	return m.mask[pe>>6]>>(uint(pe)&63)&1 == 1
}

// All executes one elemental instruction: f runs on every active PE.
// f must touch only PE-local plural data (its own index in caller
// slices) — that is the SIMD contract.
func (m *Machine) All(f func(pe int)) {
	m.chargeElemental()
	for pe := 0; pe < m.v; pe++ {
		if m.Enabled(pe) {
			f(pe)
		}
	}
}

// AllWords executes one elemental instruction over the packed
// representation: f runs once per vector word with that word's activity
// mask. f must touch only word-local plural data (index w in packed
// caller vectors) — the word-granular SIMD contract; it is responsible
// for honouring the mask itself (inactive lanes must keep their values
// or stay zero, depending on the instruction's semantics).
func (m *Machine) AllWords(f func(w int, active uint64)) {
	m.chargeElemental()
	for w, e := range m.mask {
		f(w, e)
	}
}

// ChargeAllChecks charges one constraint-evaluation instruction: one
// elemental instruction plus checksPerPE constraint evaluations per PE
// (the dominant cost of propagation on the real machine). It runs
// nothing: the caller applies the instruction's effect to the plural
// state itself, as BroadcastData's caller holds the broadcast data.
//
//parsec:noalloc
func (m *Machine) ChargeAllChecks(checksPerPE int) {
	m.chargeChecks(uint64(checksPerPE))
	m.chargeElemental()
}

// ChargeAllWords charges one AllWords instruction and runs nothing, like
// ChargeAllChecks.
//
//parsec:noalloc
func (m *Machine) ChargeAllWords() {
	m.chargeElemental()
}

// ChargeRouter charges one router permutation (RouterFetch's price) and
// routes nothing, like ChargeAllChecks.
//
//parsec:noalloc
func (m *Machine) ChargeRouter() {
	m.chargeRouter()
}

// ChargeReduceOr charges one global OR reduce (ReduceOr's price, one
// scan) and reduces nothing, like ChargeAllChecks.
//
//parsec:noalloc
func (m *Machine) ChargeReduceOr() {
	m.chargeScan()
}
