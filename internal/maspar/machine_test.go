package maspar

import "testing"

func TestAllChecksAccounting(t *testing.T) {
	m := newTestMachine(t, 64, 128) // 2 layers
	c0, k0 := m.Cycles, m.ConstraintChecks
	m.AllChecks(6, func(pe int) {})
	costs := DefaultCosts()
	wantCycles := costs.ConstraintCheck*6*2 + costs.Elemental*2
	if m.Cycles-c0 != wantCycles {
		t.Errorf("AllChecks charged %d cycles, want %d", m.Cycles-c0, wantCycles)
	}
	if m.ConstraintChecks-k0 != 6*128 {
		t.Errorf("check counter = %d, want %d", m.ConstraintChecks-k0, 6*128)
	}
}

// ChargeAllChecks charges an AllChecksWords instruction whose effect the
// caller applies itself: solo and in a gang, its counters must equal
// AllChecksWords'.
func TestChargeAllChecksChargesLikeAllChecksWords(t *testing.T) {
	for _, segs := range []int{1, 5} {
		gang := func() *Machine {
			m, err := New(64, DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.SetupGang(130, segs); err != nil { // 3 layers
				t.Fatal(err)
			}
			return m
		}
		words, charged := gang(), gang()
		words.AllChecksWords(6, func(int, uint64) {})
		charged.ChargeAllChecks(6)
		if words.Cycles != charged.Cycles || words.Instr != charged.Instr || words.ConstraintChecks != charged.ConstraintChecks {
			t.Errorf("gang of %d: ChargeAllChecks charged cycles=%d instr=%d checks=%d, AllChecksWords %d/%d/%d", segs,
				charged.Cycles, charged.Instr, charged.ConstraintChecks, words.Cycles, words.Instr, words.ConstraintChecks)
		}
	}
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
	m.RouterFetch(src, data)
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
