package pram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStepReadsPreStepSnapshot(t *testing.T) {
	m := New(4, Common)
	m.HostFill(0, []int64{10, 20, 30, 40})
	// Every processor rotates: cell p receives old cell (p+1)%4. If
	// reads saw in-step writes this would be order-dependent garbage.
	m.Step(4, func(p int, c *Ctx) {
		c.Write(p, c.Read((p+1)%4))
	})
	want := []int64{20, 30, 40, 10}
	for i, w := range want {
		if got := m.Read(i); got != w {
			t.Errorf("cell %d = %d, want %d", i, got, w)
		}
	}
	if m.Steps != 1 {
		t.Errorf("steps = %d, want 1", m.Steps)
	}
}

func TestCommonWriteAgreementOK(t *testing.T) {
	m := New(1, Common)
	m.Step(1000, func(p int, c *Ctx) {
		c.Write(0, 1) // wired-OR idiom: everyone writes the same 1
	})
	if m.Read(0) != 1 {
		t.Error("wired-OR failed")
	}
	if m.Fault() != nil {
		t.Errorf("unexpected fault: %v", m.Fault())
	}
}

func TestCommonWriteConflictFaults(t *testing.T) {
	m := New(1, Common)
	m.Step(2, func(p int, c *Ctx) {
		c.Write(0, int64(p)) // processors 0 and 1 disagree
	})
	if m.Fault() == nil {
		t.Fatal("expected a common-write fault")
	}
	if !strings.Contains(m.Fault().Error(), "conflict") {
		t.Errorf("fault message: %v", m.Fault())
	}
}

func TestPriorityLowestWins(t *testing.T) {
	m := New(1, Priority)
	m.Step(64, func(p int, c *Ctx) {
		c.Write(0, int64(100+p))
	})
	if got := m.Read(0); got != 100 {
		t.Errorf("priority winner = %d, want 100 (processor 0)", got)
	}
}

func TestArbitraryDeterministic(t *testing.T) {
	run := func() int64 {
		m := New(1, Arbitrary)
		m.Step(64, func(p int, c *Ctx) {
			c.Write(0, int64(p))
		})
		return m.Read(0)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("arbitrary policy not deterministic across runs: %d vs %d", a, b)
	}
	if a < 0 || a >= 64 {
		t.Errorf("winner %d out of range", a)
	}
}

func TestZeroProcessorsStepStillCounts(t *testing.T) {
	m := New(1, Common)
	m.Step(0, func(p int, c *Ctx) { t.Error("should not run") })
	if m.Steps != 1 {
		t.Errorf("steps = %d", m.Steps)
	}
}

func TestMaxProcessorsTracked(t *testing.T) {
	m := New(1, Common)
	m.Step(10, func(p int, c *Ctx) {})
	m.Step(500, func(p int, c *Ctx) {})
	m.Step(3, func(p int, c *Ctx) {})
	if m.MaxProcessors != 500 {
		t.Errorf("MaxProcessors = %d, want 500", m.MaxProcessors)
	}
}

// TestQuickParallelSumViaLog verifies that per-processor distinct writes
// all land through the step's write log, for arbitrary sizes.
func TestQuickParallelSumViaLog(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		m := New(n, Common)
		m.Step(n, func(p int, c *Ctx) {
			c.Write(p, int64(p)*2)
		})
		for i := 0; i < n; i++ {
			if m.Read(i) != int64(i)*2 {
				return false
			}
		}
		return m.Writes == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWiredANDIdiom exercises the two-step AND used by consistency
// maintenance: seed 1, dissenters write 0.
func TestWiredANDIdiom(t *testing.T) {
	for _, dissent := range []bool{false, true} {
		m := New(2, Common)
		m.Step(1, func(p int, c *Ctx) { c.Write(0, 1) })
		m.Step(100, func(p int, c *Ctx) {
			if dissent && p%7 == 3 {
				c.Write(0, 0)
			}
		})
		want := int64(1)
		if dissent {
			want = 0
		}
		if got := m.Read(0); got != want {
			t.Errorf("dissent=%v: AND cell = %d, want %d", dissent, got, want)
		}
	}
}
