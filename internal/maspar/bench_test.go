package maspar

import (
	"fmt"
	"testing"
)

func benchMachine(b *testing.B, v int) *Machine {
	b.Helper()
	m, err := New(PhysicalPEs, DefaultCosts())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Setup(v); err != nil {
		b.Fatal(err)
	}
	return m
}

// reportCycles attaches the simulated machine-cycle cost of one
// iteration so BENCH_scan.json can track the cost model alongside
// host-side ns/op.
func reportCycles(b *testing.B, m *Machine) {
	b.Helper()
	if b.N > 0 {
		b.ReportMetric(float64(m.Cycles)/float64(b.N), "cycles/op")
	}
}

// BenchmarkSegScanOrRef measures the scalar reference OR-scan over
// 16-PE segments.
func BenchmarkSegScanOrRef(b *testing.B) {
	for _, v := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			m := benchMachine(b, v)
			data := make([]Bit, v)
			head := make([]bool, v)
			for i := 0; i < v; i += 16 {
				head[i] = true
				data[i+v/128%16] = 1
			}
			dst := make([]Bit, v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SegScanOr(dst, data, head)
			}
			reportCycles(b, m)
		})
	}
}

// BenchmarkRouterFetchRef is the scalar reference gather.
func BenchmarkRouterFetchRef(b *testing.B) {
	for _, v := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			m := benchMachine(b, v)
			data := make([]Bit, v)
			src := make([]int32, v)
			for i := range src {
				src[i] = int32((i * 7) % v)
			}
			dst := make([]Bit, v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RouterFetch(dst, src, data)
			}
			reportCycles(b, m)
		})
	}
}

// BenchmarkSegReduceOrToHead covers the backward (reduce-to-head)
// carry chain, the scan shape the consistency round leans on.
func BenchmarkSegReduceOrToHead(b *testing.B) {
	v := 16384
	m := benchMachine(b, v)
	data := make([]Bit, v)
	head := make([]bool, v)
	for i := 0; i < v; i += 16 {
		head[i] = true
		data[(i+3)%v] = 1
	}
	nw := m.WordLen()
	dataV, headV, dst := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
	PackBits(dataV, data)
	PackBools(headV, head)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SegReduceOrToHeadV(dst, dataV, headV)
	}
	reportCycles(b, m)
}

func BenchmarkAll(b *testing.B) {
	m := benchMachine(b, 65536)
	data := make([]Bit, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.All(func(pe int) { data[pe] ^= 1 })
	}
	reportCycles(b, m)
}
