// Benchmarks regenerating the paper's tables and figures. Each bench
// maps to an experiment in DESIGN.md's index:
//
//	BenchmarkFig8_*       — Figure 8 rows (architecture comparison)
//	BenchmarkE3_*         — §3 timing anchors
//	BenchmarkE4_*         — §3 virtualization staircase
//	BenchmarkE5_*         — filtering-iteration regimes
//	BenchmarkE6_*         — design-decision ablations
//
// Custom metrics report the machine-model quantities (steps, cycles,
// model-milliseconds) alongside host ns/op; the *shape* claims live in
// the metrics, the host time is incidental.
package parsec_test

import (
	"fmt"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/maspar"
	"repro/internal/pram"
	"repro/internal/serial"
	"repro/internal/workload"
)

var fig8Sizes = []int{3, 5, 7, 10}

// BenchmarkFig8_SequentialCFG is the "Sequential machine / CFG" row:
// CKY, O(k·n³).
func BenchmarkFig8_SequentialCFG(b *testing.B) {
	g := cfg.Random(7, 6, 4, 14)
	for _, n := range fig8Sizes {
		words := cfg.RandomString(g, uint64(n)*13, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				res, err := cfg.CKY(g, words)
				if err != nil {
					b.Fatal(err)
				}
				ops = res.Ops
			}
			b.ReportMetric(float64(ops), "ruleops")
		})
	}
}

// BenchmarkFig8_SequentialCDG is the "Sequential machine / CDG" row:
// the O(k·n⁴) reference parser.
func BenchmarkFig8_SequentialCDG(b *testing.B) {
	g := grammars.PaperDemo()
	for _, n := range fig8Sizes {
		words := workload.DemoSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var checks uint64
			for i := 0; i < b.N; i++ {
				res, err := serial.ParseWords(g, words, serial.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				checks = res.Counters.ConstraintChecks
			}
			b.ReportMetric(float64(checks), "checks")
		})
	}
}

// BenchmarkFig8_PRAM_CDG is the "CRCW P-RAM / CDG" row: O(k) steps with
// O(n⁴) processors — the steps metric must not move with n.
func BenchmarkFig8_PRAM_CDG(b *testing.B) {
	g := grammars.PaperDemo()
	opt := pram.Options{Policy: pram.Common, Filter: true, MaxFilterIters: 3}
	for _, n := range fig8Sizes {
		words := workload.DemoSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps, procs uint64
			for i := 0; i < b.N; i++ {
				res, err := pram.ParseWords(g, words, opt)
				if err != nil {
					b.Fatal(err)
				}
				steps, procs = res.Machine.Steps, res.Counters.Processors
			}
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(float64(procs), "procs")
		})
	}
}

// BenchmarkFig8_MeshCFG is the "2D mesh / cellular automata" row:
// O(k·n) ticks on O(n²) cells.
func BenchmarkFig8_MeshCFG(b *testing.B) {
	g := cfg.Random(7, 6, 4, 14)
	for _, n := range fig8Sizes {
		words := cfg.RandomString(g, uint64(n)*29, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ticks, cells uint64
			for i := 0; i < b.N; i++ {
				res, err := cfg.Mesh(g, words)
				if err != nil {
					b.Fatal(err)
				}
				ticks, cells = res.Ticks, res.Cells
			}
			b.ReportMetric(float64(ticks), "ticks")
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkFig8_MasParCDG is the paper's own row: O(k + log n) on the
// MP-1. Cycles stay flat until virtualization; layers report the
// staircase.
func BenchmarkFig8_MasParCDG(b *testing.B) {
	g := grammars.PaperDemo()
	for _, n := range fig8Sizes {
		words := workload.DemoSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.NewParser(g, core.WithBackend(core.MasPar), core.WithMaxFilterIters(3))
			var cycles, layers uint64
			var modelMS float64
			for i := 0; i < b.N; i++ {
				res, err := p.Parse(words)
				if err != nil {
					b.Fatal(err)
				}
				cycles, layers = res.Counters.Cycles, res.Counters.VirtualLayers
				modelMS = res.ModelTime.Seconds() * 1000
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(layers), "layers")
			b.ReportMetric(modelMS, "model-ms")
		})
	}
}

// BenchmarkE3_MasParSingleConstraint times one binary-constraint
// propagation on the simulated MP-1 (the paper: < 10 ms for networks of
// 1–7 words). The model-ms metric is the reproduction of that number.
func BenchmarkE3_MasParSingleConstraint(b *testing.B) {
	g := grammars.PaperDemo()
	for _, n := range []int{3, 5, 7} {
		words := workload.DemoSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.NewParser(g, core.WithBackend(core.MasPar), core.WithMaxFilterIters(3))
			var perConstraintMS float64
			for i := 0; i < b.N; i++ {
				res, err := p.Parse(words)
				if err != nil {
					b.Fatal(err)
				}
				perConstraintMS = res.ModelTime.Seconds() * 1000 / float64(g.NumConstraints())
			}
			b.ReportMetric(perConstraintMS, "model-ms/constraint")
		})
	}
}

// BenchmarkE3_SerialSingleConstraint is the serial counterpart (the
// paper's SPARCstation measured 15 s; the shape claim is the widening
// gap with n, not the absolute number).
func BenchmarkE3_SerialSingleConstraint(b *testing.B) {
	g := grammars.PaperDemo()
	for _, n := range []int{3, 5, 7} {
		words := workload.DemoSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sent := mustResolve(b, n, words)
			for i := 0; i < b.N; i++ {
				if _, err := serial.PropagateOne(g, sent, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_VirtualizationPlan sweeps the analytic staircase (plan is
// cycle-exact per TestPlanMatchesExecution).
func BenchmarkE4_VirtualizationPlan(b *testing.B) {
	g := grammars.PaperDemo()
	costs := maspar.DefaultCosts()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 40; n++ {
			core.PlanMasPar(g, n, maspar.PhysicalPEs, costs, 3)
		}
	}
	p10 := core.PlanMasPar(g, 10, maspar.PhysicalPEs, costs, 3)
	b.ReportMetric(float64(p10.Layers), "layers@n=10")
	b.ReportMetric(p10.ModelTime.Seconds()*1000, "model-ms@n=10")
}

// BenchmarkE5_FilteringEnglish and BenchmarkE5_FilteringChain contrast
// the two filtering regimes.
func BenchmarkE5_FilteringEnglish(b *testing.B) {
	g := grammars.English()
	for _, n := range []int{5, 9, 13} {
		words := workload.EnglishSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds uint64
			for i := 0; i < b.N; i++ {
				res, err := serial.ParseWords(g, words, serial.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Counters.FilterIterations
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

func BenchmarkE5_FilteringChain(b *testing.B) {
	g := grammars.Chain()
	for _, n := range []int{5, 9, 13} {
		words := grammars.ChainSentence(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds uint64
			for i := 0; i < b.N; i++ {
				res, err := serial.ParseWords(g, words, serial.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Counters.FilterIterations
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkE6_ConsistencySchedule contrasts batched (O(k + log n)) and
// per-constraint (O(k·log n)) consistency on the MasPar.
func BenchmarkE6_ConsistencySchedule(b *testing.B) {
	g := grammars.PaperDemo()
	words := workload.DemoSentence(7)
	for _, perConstraint := range []bool{false, true} {
		name := "batched"
		if perConstraint {
			name = "per-constraint"
		}
		b.Run(name, func(b *testing.B) {
			p := core.NewParser(g, core.WithBackend(core.MasPar),
				core.WithConsistencyPerConstraint(perConstraint))
			var scans uint64
			var modelMS float64
			for i := 0; i < b.N; i++ {
				res, err := p.Parse(words)
				if err != nil {
					b.Fatal(err)
				}
				scans = res.Counters.ScanOps
				modelMS = res.ModelTime.Seconds() * 1000
			}
			b.ReportMetric(float64(scans), "scans")
			b.ReportMetric(modelMS, "model-ms")
		})
	}
}

// BenchmarkE6_RouterVsRing prices the identical schedule under log-P
// router scans vs a linear ring reduction.
func BenchmarkE6_RouterVsRing(b *testing.B) {
	g := grammars.PaperDemo()
	ring := maspar.DefaultCosts()
	ring.ScanPerLevel, ring.ScanBase = 0, 2*uint64(maspar.PhysicalPEs)
	ring.RouterPerLevel, ring.RouterBase = 0, 2*uint64(maspar.PhysicalPEs)
	for _, tc := range []struct {
		name  string
		costs maspar.CostModel
	}{{"router", maspar.DefaultCosts()}, {"ring", ring}} {
		b.Run(tc.name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				p := core.PlanMasPar(g, 7, maspar.PhysicalPEs, tc.costs, 3)
				ms = p.ModelTime.Seconds() * 1000
			}
			b.ReportMetric(ms, "model-ms")
		})
	}
}

// BenchmarkE8_FilterAlgorithms times the two exact filtering algorithms
// from the same propagated network.
func BenchmarkE8_FilterAlgorithms(b *testing.B) {
	g := grammars.Chain()
	words := grammars.ChainSentence(14)
	base, err := serial.ParseWords(g, words, serial.Options{Filter: false})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AC-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nw := base.Network.Clone()
			b.StartTimer()
			nw.Filter(0)
		}
	})
	b.Run("AC-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nw := base.Network.Clone()
			b.StartTimer()
			nw.FilterAC4()
		}
	})
}

// BenchmarkExtraction measures precedence-graph enumeration on the
// ambiguous English sentence.
func BenchmarkExtraction(b *testing.B) {
	g := grammars.English()
	words := workload.AmbiguousEnglish(2)
	res, err := serial.ParseWords(g, words, serial.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var parses int
	for i := 0; i < b.N; i++ {
		parses = len(res.Network.ExtractParses(0))
	}
	b.ReportMetric(float64(parses), "parses")
}

func mustResolve(b *testing.B, n int, words []string) *cdg.Sentence {
	b.Helper()
	sent, err := cdg.Resolve(grammars.PaperDemo(), words, nil)
	if err != nil {
		b.Fatal(err)
	}
	_ = n
	return sent
}
