package maspar

import "testing"

// TestAllChecksAccounting pins the absolute charge of one constraint
// evaluation instruction: one elemental instruction plus checksPerPE
// checks per layer in cycles, and checksPerPE checks per PE in the
// check counter — at 128 PEs on 64 (2 layers) and at 144 PEs, whose
// last word is partial (3 layers).
func TestAllChecksAccounting(t *testing.T) {
	costs := DefaultCosts()
	for _, tc := range []struct{ v, layers int }{{128, 2}, {144, 3}} {
		m := newTestMachine(t, 64, tc.v)
		m.ChargeAllChecks(6)
		want := counters{
			cycles: (costs.ConstraintCheck*6 + costs.Elemental) * uint64(tc.layers),
			instr:  1,
			checks: 6 * uint64(tc.v),
		}
		if got := countersOf(m); got != want {
			t.Errorf("%d PEs: ChargeAllChecks(6) charged %+v, want %+v", tc.v, got, want)
		}
	}
}

// counters is the machine's charge state, comparable as one value.
type counters struct {
	cycles, instr, scans, routers, broadcasts, checks uint64
}

func countersOf(m *Machine) counters {
	return counters{m.Cycles, m.Instr, m.ScanOps, m.RouterOps, m.Broadcasts, m.ConstraintChecks}
}

// checkChargesLike holds a charge-only call to the instruction it stands
// for: charge must leave every counter equal to what one issue of instr
// leaves, on a 12×12 grid of 144 PEs on 64 physical PEs (3 layers).
func checkChargesLike(t *testing.T, name string, instr, charge func(m *Machine)) {
	t.Helper()
	ran, charged := newTestMachine(t, 64, 144), newTestMachine(t, 64, 144)
	instr(ran)
	charge(charged)
	if got, want := countersOf(charged), countersOf(ran); got != want {
		t.Errorf("%s charged %+v, the instruction %+v", name, got, want)
	}
}

func TestChargeAllWordsChargesLikeAllWords(t *testing.T) {
	checkChargesLike(t, "ChargeAllWords",
		func(m *Machine) { m.AllWords(func(int, uint64) {}) },
		(*Machine).ChargeAllWords)
}

func TestChargeRouterChargesLikeRouterFetch(t *testing.T) {
	checkChargesLike(t, "ChargeRouter",
		func(m *Machine) { m.RouterFetch(make([]Bit, m.V()), make([]int32, m.V()), make([]Bit, m.V())) },
		(*Machine).ChargeRouter)
}

func TestChargeReduceOrChargesLikeReduceOr(t *testing.T) {
	checkChargesLike(t, "ChargeReduceOr",
		func(m *Machine) { m.ReduceOr(make([]Bit, m.V())) },
		(*Machine).ChargeReduceOr)
}

func TestBroadcastAccounting(t *testing.T) {
	m := newTestMachine(t, 64, 128)
	c0 := m.Cycles
	m.BroadcastData()
	if m.Cycles-c0 != DefaultCosts().Broadcast*2 {
		t.Errorf("broadcast charge = %d", m.Cycles-c0)
	}
	if m.Broadcasts != 1 {
		t.Errorf("broadcast count = %d", m.Broadcasts)
	}
}

func TestRouterAccounting(t *testing.T) {
	m := newTestMachine(t, 1024, 1024)
	src := make([]int32, 1024)
	data := make([]Bit, 1024)
	c0 := m.Cycles
	m.RouterFetch(make([]Bit, 1024), src, data)
	costs := DefaultCosts()
	want := costs.RouterBase + costs.RouterPerLevel*10 // log2(1024)=10
	if m.Cycles-c0 != want {
		t.Errorf("router charge = %d, want %d", m.Cycles-c0, want)
	}
	if m.RouterOps != 1 {
		t.Errorf("router ops = %d", m.RouterOps)
	}
}

func TestEnableAllChargesElemental(t *testing.T) {
	m := newTestMachine(t, 16, 16)
	m.SetMask(func(pe int) bool { return false })
	c0 := m.Cycles
	m.EnableAll()
	if m.Cycles == c0 {
		t.Error("EnableAll should cost a cycle charge")
	}
	n := 0
	m.All(func(pe int) { n++ })
	if n != 16 {
		t.Errorf("after EnableAll, %d PEs ran, want 16", n)
	}
}

func TestMachineAccessors(t *testing.T) {
	m := newTestMachine(t, 64, 200)
	if m.Phys() != 64 || m.V() != 200 || m.Layers() != 4 {
		t.Errorf("accessors: phys=%d v=%d layers=%d", m.Phys(), m.V(), m.Layers())
	}
	if !m.Enabled(0) {
		t.Error("PEs start enabled")
	}
}
