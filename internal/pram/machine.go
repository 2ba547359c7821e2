// Package pram simulates a synchronous CRCW P-RAM (Fortune & Wyllie
// 1978) and implements the paper's O(k)-step CDG parsing algorithm on it
// (section 2.1).
//
// The machine executes in lockstep steps. Within one step every active
// processor reads the shared memory as it stood when the step began,
// then all writes are committed together with a concurrent-write
// resolution policy. That read-before-write discipline is what lets the
// constant-time wired-OR/AND idiom of the paper work: any number of
// processors may write 1 to a common cell in a single step.
//
// The host runs a step's processors one after another on the caller's
// goroutine, buffering their writes in one log; the order never shows,
// because reads see only the pre-step snapshot and write conflicts are
// resolved by processor id, not arrival order.
package pram

import (
	"fmt"
	"sort"
)

// Policy selects the concurrent-write resolution rule.
type Policy int

const (
	// Common requires all processors writing one cell in one step to
	// write the same value; a disagreement is recorded as a machine
	// fault. The paper's OR/AND idiom only needs Common.
	Common Policy = iota
	// Arbitrary lets an unpredictable writer win. The simulator picks
	// deterministically (a hash of step and processor id) so runs are
	// repeatable while still exercising "some random processor
	// succeeds" semantics from the paper.
	Arbitrary
	// Priority lets the lowest-numbered processor win.
	Priority
)

func (p Policy) String() string {
	switch p {
	case Common:
		return "common"
	case Arbitrary:
		return "arbitrary"
	case Priority:
		return "priority"
	}
	return "unknown"
}

// Machine is a CRCW P-RAM with word-addressed shared memory.
type Machine struct {
	mem    []int64
	policy Policy
	// Steps counts synchronous steps executed.
	Steps uint64
	// MaxProcessors records the largest processor count any step used.
	MaxProcessors uint64
	// Writes counts committed memory writes.
	Writes uint64

	// log buffers the current step's writes until Step commits them.
	log   []write
	fault error
}

// New returns a machine with memWords words of zeroed shared memory.
func New(memWords int, policy Policy) *Machine {
	return &Machine{mem: make([]int64, memWords), policy: policy}
}

// Fault returns the first Common-write disagreement observed, if any.
func (m *Machine) Fault() error { return m.fault }

// Read returns the value at addr (host-side inspection; not counted as a
// machine step).
func (m *Machine) Read(addr int) int64 { return m.mem[addr] }

// HostFill sets mem[addr..addr+len(vals)) from the host (setup only).
func (m *Machine) HostFill(addr int, vals []int64) {
	copy(m.mem[addr:], vals)
}

// write is one pending memory write by processor p.
type write struct {
	addr int
	val  int64
	p    int
}

// Ctx is the per-processor view during a step: reads hit the pre-step
// snapshot, writes are buffered for commit.
type Ctx struct {
	mem []int64
	log *[]write
	p   int
}

// Read returns the pre-step value of addr.
func (c *Ctx) Read(addr int) int64 { return c.mem[addr] }

// Write schedules a write of val to addr.
func (c *Ctx) Write(addr int, val int64) {
	*c.log = append(*c.log, write{addr: addr, val: val, p: c.p})
}

// Step runs one synchronous step with nproc active processors executing
// f. All reads in f observe the memory as it stood when Step began; all
// writes commit at the end under the machine's policy.
func (m *Machine) Step(nproc int, f func(p int, c *Ctx)) {
	m.Steps++
	if uint64(nproc) > m.MaxProcessors {
		m.MaxProcessors = uint64(nproc)
	}
	if nproc <= 0 {
		return
	}
	ctx := Ctx{mem: m.mem, log: &m.log}
	for p := 0; p < nproc; p++ {
		ctx.p = p
		f(p, &ctx)
	}
	m.commit(m.log)
	m.log = m.log[:0]
}

// commit applies one step's write log under the resolution policy.
func (m *Machine) commit(all []write) {
	// Deterministic order: by address, then processor id.
	sort.Slice(all, func(i, j int) bool {
		if all[i].addr != all[j].addr {
			return all[i].addr < all[j].addr
		}
		return all[i].p < all[j].p
	})
	i := 0
	for i < len(all) {
		j := i
		for j < len(all) && all[j].addr == all[i].addr {
			j++
		}
		group := all[i:j]
		var winner write
		switch m.policy {
		case Common:
			winner = group[0]
			for _, w := range group[1:] {
				if w.val != winner.val && m.fault == nil {
					m.fault = fmt.Errorf("pram: common-write conflict at address %d on step %d: processor %d wrote %d, processor %d wrote %d",
						w.addr, m.Steps, winner.p, winner.val, w.p, w.val)
				}
			}
		case Priority:
			winner = group[0] // lowest processor id after sorting
		case Arbitrary:
			// Deterministic pseudo-random pick keyed by step & address.
			h := m.Steps*1000003 ^ uint64(group[0].addr)*9176
			winner = group[h%uint64(len(group))]
		}
		m.mem[winner.addr] = winner.val
		m.Writes++
		i = j
	}
}
