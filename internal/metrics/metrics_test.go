package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersAddAndString(t *testing.T) {
	a := &Counters{ConstraintChecks: 5, Steps: 2, Processors: 100, VirtualLayers: 1}
	b := &Counters{ConstraintChecks: 3, Cycles: 7, Processors: 50, VirtualLayers: 4}
	a.Add(b)
	if a.ConstraintChecks != 8 || a.Cycles != 7 || a.Steps != 2 {
		t.Errorf("add: %+v", a)
	}
	if a.Processors != 100 {
		t.Errorf("Processors should keep max: %d", a.Processors)
	}
	if a.VirtualLayers != 4 {
		t.Errorf("VirtualLayers should keep max: %d", a.VirtualLayers)
	}
	s := a.String()
	for _, want := range []string{"checks=8", "cycles=7", "steps=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	a.Reset()
	if a.String() != "(no work recorded)" {
		t.Errorf("reset string = %q", a.String())
	}
}

func TestFitExponentExact(t *testing.T) {
	// cost = 3·n²  → exponent 2 exactly.
	var samples []Sample
	for _, n := range []int{2, 4, 8, 16} {
		samples = append(samples, Sample{N: n, Cost: 3 * float64(n) * float64(n)})
	}
	e, ok := FitExponent(samples)
	if !ok || math.Abs(e-2) > 1e-9 {
		t.Errorf("exponent = %v ok=%v", e, ok)
	}
}

func TestFitExponentDegenerate(t *testing.T) {
	if _, ok := FitExponent(nil); ok {
		t.Error("empty should fail")
	}
	if _, ok := FitExponent([]Sample{{N: 2, Cost: 4}}); ok {
		t.Error("single sample should fail")
	}
	if _, ok := FitExponent([]Sample{{N: 2, Cost: 4}, {N: 2, Cost: 8}}); ok {
		t.Error("single distinct n should fail")
	}
	if _, ok := FitExponent([]Sample{{N: 2, Cost: 0}, {N: 4, Cost: 0}}); ok {
		t.Error("zero costs should fail")
	}
}

func TestFitLogSlope(t *testing.T) {
	// cost = 5 + 3·log₂ n.
	var samples []Sample
	for _, n := range []int{2, 4, 8, 16, 32} {
		samples = append(samples, Sample{N: n, Cost: 5 + 3*math.Log2(float64(n))})
	}
	s, ok := FitLogSlope(samples)
	if !ok || math.Abs(s-3) > 1e-9 {
		t.Errorf("slope = %v ok=%v", s, ok)
	}
	if _, ok := FitLogSlope([]Sample{{N: 4, Cost: 1}}); ok {
		t.Error("single sample should fail")
	}
}

// TestQuickFitExponentRecovers: for random power laws, the fit recovers
// the exponent.
func TestQuickFitExponentRecovers(t *testing.T) {
	f := func(rawB, rawA uint8) bool {
		bExp := float64(rawB%5) + 0.5 // 0.5 .. 4.5
		a := float64(rawA%9) + 1
		var samples []Sample
		for _, n := range []int{3, 5, 8, 13, 21} {
			samples = append(samples, Sample{N: n, Cost: a * math.Pow(float64(n), bExp)})
		}
		got, ok := FitExponent(samples)
		return ok && math.Abs(got-bExp) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1)
	tab.AddRow("a-much-longer-name", 2.5)
	tab.AddRow("float", 1234567.0)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Header separator under each column.
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator line = %q", lines[1])
	}
	// Columns aligned: every line same prefix width for col 1.
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1") {
		t.Error("row content")
	}
	if !strings.Contains(out, "1234567") {
		t.Errorf("integral float should print plainly:\n%s", out)
	}
	if !strings.Contains(out, "2.5") {
		t.Error("fractional float")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("a")
	tab.AddRow("x", "extra", "cols")
	out := tab.String()
	if !strings.Contains(out, "extra") {
		t.Errorf("ragged row dropped: %s", out)
	}
}

func TestSortSamples(t *testing.T) {
	s := []Sample{{N: 5}, {N: 1}, {N: 3}}
	SortSamples(s)
	if s[0].N != 1 || s[2].N != 5 {
		t.Errorf("sorted = %v", s)
	}
}

// TestQuantile pins the index rule sorted[max(int(p·n)−1, 0)]: p99 of
// 5 values is the 4th, p50 of 5 the 2nd, p = 1 the maximum, and
// quantiles never decrease in p.
func TestQuantile(t *testing.T) {
	five := []int{10, 20, 30, 40, 50}
	eight := []int{10, 20, 30, 40, 50, 100, 200, 999}
	for _, tc := range []struct {
		sorted []int
		p      float64
		want   int
	}{
		{five, 0.99, 40},
		{five, 0.50, 20},
		{five, 1, 50},
		{eight, 0.99, 200},
		{eight, 0.50, 40},
		{eight, 0.01, 10},
		{[]int{7}, 0.99, 7},
		{nil, 0.99, 0},
	} {
		if got := Quantile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("Quantile(%v, %g) = %d, want %d", tc.sorted, tc.p, got, tc.want)
		}
	}
	prev := 0
	for p := 0.01; p <= 1; p += 0.01 {
		v := Quantile(eight, p)
		if v < prev {
			t.Fatalf("Quantile(p=%g) = %d < %d at a lower p", p, v, prev)
		}
		prev = v
	}
}
