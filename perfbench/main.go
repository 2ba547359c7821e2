// Command perfbench is the repository's serving benchmark. It boots
// parsecd instances (and, for the fleet workload, a parsecrouter) in
// process on loopback listeners, drives one of four seeded closed-loop
// workloads against them, checks the answers against the serial engine,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a traced replay of the same inputs. See README.md.
//
//	bash perfbench/run.sh --workload parse-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for span dumps and exact-count records
	// tiny shrinks warm-ups, set-up repeats and sampling for the
	// benchmark's own tests.
	tiny bool
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "parse-cold | parse-zipf-fleet | maspar-gang | lattice-stream")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for span dumps and exact-count records")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one closed-loop pass over a range of calls.
type phase struct {
	outs    []outcome
	elapsed time.Duration
}

func (p phase) ops() (attempted, failed int) {
	for _, o := range p.outs {
		attempted += o.ops
		failed += o.failed
	}
	return attempted, failed
}

func (p phase) opsPerSec() float64 {
	a, f := p.ops()
	return float64(a-f) / p.elapsed.Seconds()
}

// sliceMedians splits the phase into equal time slices, one a second
// but fewer when a slice would hold under sliceCalls calls on average,
// and returns the median slice's throughput and median latency.
// Interference from other work on the host comes in bursts; the medians
// keep a burst that hits one slice out of the figures.
func sliceMedians(p phase) (opsPerSec, p50ms float64) {
	n := max(1, min(int(p.elapsed/time.Second), len(p.outs)/sliceCalls))
	width := p.elapsed / time.Duration(n)
	slices := make([]phase, n)
	for _, o := range p.outs {
		k := min(int(o.done/width), n-1)
		slices[k].outs = append(slices[k].outs, o)
	}
	var ops, lat []float64
	for _, sl := range slices {
		sl.elapsed = width
		ops = append(ops, sl.opsPerSec())
		lat = append(lat, percentileMS(latencies(sl.outs), 0.5))
	}
	return median(ops), median(lat)
}

// sliceCalls is the fewest calls a slice may hold.
const sliceCalls = 40

// drive runs calls from, from+1, … on the workload's callers, each
// waiting for its reply before taking the next index, until limit calls
// have started or the deadline (if non-zero) has passed.
func drive(ctx context.Context, w traffic, c *caller, from, limit int, deadline time.Time) phase {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < w.clients(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					break
				}
				o := w.call(ctx, c, i)
				o.done = time.Since(start)
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(outs, func(i, j int) bool { return outs[i].op < outs[j].op })
	return phase{outs: outs, elapsed: elapsed}
}

func newCaller(url string, tr *tracer) *caller {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 8
	return &caller{hc: &http.Client{Transport: t}, url: url, tr: tr}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

// bootWarm starts the workload's system and serves its warm-up calls.
func bootWarm(ctx context.Context, w traffic, tr *tracer) (*topology, *caller, error) {
	top, err := w.boot(tr)
	if err != nil {
		return nil, nil, err
	}
	c := newCaller(top.url, tr)
	warm := drive(ctx, w, c, 0, w.warmup(), time.Time{})
	if _, failed := warm.ops(); failed > 0 {
		c.close()
		top.close()
		return nil, nil, fmt.Errorf("%d warm-up ops failed", failed)
	}
	return top, c, nil
}

// setupRepeats is how many times a run boots and warms the system; the
// reported set-up time is their median and the last one is measured.
const setupRepeats = 5

func run(cfg config, stdout io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	ctx := context.Background()
	reps := setupRepeats
	if cfg.tiny || cfg.trace {
		// The traced run reports no set-up time.
		reps = 1
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The traced run measures an untraced pass and a traced replay
		// of the same calls in the time one plain run measures.
		measure /= 2
	}

	var setups []float64
	var top *topology
	var c *caller
	for r := 0; r < reps; r++ {
		if top != nil {
			c.close()
			top.close()
		}
		t0 := time.Now()
		top, c, err = bootWarm(ctx, w, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	heap := sampleLiveHeap()
	plain := drive(ctx, w, c, w.warmup(), int(^uint(0)>>1), time.Now().Add(measure))
	live := heap()
	runtime.ReadMemStats(&after)
	c.close()
	top.close()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	check(plain, w, res, &problems, stdout)

	if !cfg.trace {
		lat := latencies(plain.outs)
		a, _ := plain.ops()
		put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		ops, p50 := sliceMedians(plain)
		put("ops_per_s", ops, "1/s")
		put("p50_ms", p50, "ms")
		put("tail_ms", percentileMS(lat, w.tail()), "ms")
		put("setup_s", median(setups), "s")
		put("alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(a), "KiB")
		put("live_heap_mb", live/(1<<20), "MiB")
		need := int(10/(1-w.tail()) + 0.5)
		fmt.Fprintf(stdout, "latency samples=%d, tail_ms is p%.0f (needs >= %d)\n", len(lat), 100*w.tail(), need)
		if len(lat) < need {
			fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples; tail_ms has fewer than 10 beyond it\n", len(lat))
		}
	} else {
		if err := traced(ctx, cfg, w, plain, res, &problems, stdout); err != nil {
			return nil, err
		}
	}

	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(problems) == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// heapSampleEvery is how often the measured phase samples the live heap.
const heapSampleEvery = 100 * time.Millisecond

// sampleLiveHeap samples the heap the last garbage collection found live
// until the returned function is called; that function stops the
// sampler and returns the median sample in bytes.
func sampleLiveHeap() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var got []float64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > 0 {
					got = append(got, float64(sample[0].Value.Uint64()))
				}
			case <-stop:
				if len(got) == 0 {
					metrics.Read(sample)
					got = append(got, float64(sample[0].Value.Uint64()))
				}
				done <- median(got)
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

func verdicts(outs []outcome) []verdict {
	var vs []verdict
	for _, o := range outs {
		vs = append(vs, o.got...)
	}
	return vs
}

func latencies(outs []outcome) []time.Duration {
	var lat []time.Duration
	for _, o := range outs {
		lat = append(lat, o.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// percentileMS is the nearest-rank percentile of sorted samples.
func percentileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(float64(len(sorted))*p+0.999999) - 1
	k = max(0, min(k, len(sorted)-1))
	return float64(sorted[k]) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// binaryID names the program build, so exact counts recorded by one
// build are only ever compared with the same build's.
func binaryID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkExact records the run's exact counts, or compares them with the
// counts an earlier run of the same build, workload and seed recorded.
func checkExact(cfg config, counts map[string]uint64) ([]string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("exact-%s-%d-%s.json", cfg.workload, cfg.seed, binaryID()))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]uint64
		if err := json.Unmarshal(b, &prev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var bad []string
		for k, v := range counts {
			if pv, ok := prev[k]; ok && pv != v {
				bad = append(bad, fmt.Sprintf("exact count %s = %d, an earlier run of this seed counted %d", k, v, pv))
			}
		}
		return bad, nil
	}
	b, err := json.Marshal(counts)
	if err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, b, 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced replays the plain pass's calls on a freshly booted, traced
// system, then the engine-layer ladder, and reports per-layer metrics.
func traced(ctx context.Context, cfg config, w traffic, plain phase, res *result, problems *[]string, stdout io.Writer) error {
	tr := newTracer()
	top, c, err := bootWarm(ctx, w, tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	// Exactly the calls the plain pass made, so cache contents match;
	// the warm-up's spans are not part of it.
	tr.reset()
	tp := drive(ctx, w, c, w.warmup(), w.warmup()+len(plain.outs), time.Time{})
	var sstats []server.Stats
	for _, s := range top.shards {
		sstats = append(sstats, s.Stats())
	}
	var rs router.Stats
	if top.rt != nil {
		rs = top.rt.Stats()
	}
	c.close()
	top.close()
	fmt.Fprint(stdout, "traced pass: ")
	check(tp, w, res, problems, stdout)

	// Hang each call's server-reported queue and engine time under the
	// shard span that answered it.
	spans := tr.snapshot()
	attachServerTimes(tr, spans, tp.outs)

	sents, gang, lats := w.ladder()
	lr, err := runLadder(ctx, tr, english(), w.oracle().maxParses, sents, gang, lats)
	if err != nil {
		return fmt.Errorf("layer ladder: %w", err)
	}
	*problems = append(*problems, lr.problems...)
	spans = tr.snapshot()
	lt := selfTimes(spans)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	spanPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), spanPath)

	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	calls := len(tp.outs)
	g := float64(max(lr.gang, 1))

	// Tracing overhead and closure.
	put("trace.overhead_pct", 100*(1-ratio(tp.opsPerSec(), plain.opsPerSec())), "%")
	put("trace.closure_pct", lt.closurePct(), "%")
	if lt.closurePct() > closureTolerancePct {
		*problems = append(*problems, fmt.Sprintf("self times sum to %.3f%% off wall clock (tolerance %.1f%%)", lt.closurePct(), closureTolerancePct))
	}

	// cdg, cn and serial.
	put("cdg.resolve_us", lt.meanUS("cdg.resolve", false, lr.sentences), "us")
	put("cdg.constraint_checks", float64(lr.checks), "count")
	for _, s := range []string{"cn.build", "cn.unary", "cn.binary", "cn.consistency", "cn.filter"} {
		put(s+"_us", lt.meanUS(s, true, lr.sentences), "us")
	}
	put("serial.other_us", lt.meanUS("serial.parse", true, lr.sentences), "us")
	put("cn.filter_iters", float64(lr.iters), "count")
	put("cn.extract_us", lt.meanUS("cn.extract", false, lr.sentences), "us")

	// core and maspar.
	put("core.solo_ms_per_sent", float64(lr.soloNs)/g/1e6, "ms")
	put("core.gang_ms_per_sent", float64(lr.gangNs)/g/1e6, "ms")
	put("core.gang_speedup", ratio(float64(lr.soloNs), float64(lr.gangNs)), "x")
	eval, scan, rtr := lr.attr.EvalNs.Load(), lr.attr.ScanNs.Load(), lr.attr.RouterNs.Load()
	put("core.eval_ms", float64(eval)/g/1e6, "ms")
	put("core.scan_ms", float64(scan)/g/1e6, "ms")
	put("core.router_ms", float64(rtr)/g/1e6, "ms")
	put("core.other_ms", float64(lr.soloNs-eval-scan-rtr)/g/1e6, "ms")
	put("maspar.cycles", float64(lr.maspar.Cycles), "count")
	put("maspar.scan_ops", float64(lr.maspar.ScanOps), "count")
	put("maspar.router_ops", float64(lr.maspar.RouterOps), "count")
	put("maspar.virtual_layers", float64(lr.maspar.VirtualLayers), "count")

	// server, from the traced pass.
	put("server.handler_us", lt.meanUS("server", false, 0), "us")
	put("server.queue_us", lt.meanUS("server.queue", false, calls), "us")
	put("server.engine_us", lt.meanUS("server.engine", false, calls), "us")
	put("server.overhead_us", lt.meanUS("server", true, 0), "us")
	var agg server.Stats
	var batchSum float64
	for _, s := range sstats {
		agg.ResultCacheHits += s.ResultCacheHits
		agg.ResultCacheMisses += s.ResultCacheMisses
		agg.Batches += s.Batches
		agg.Parses += s.Parses
		agg.GangJobs += s.GangJobs
		agg.Rejected += s.Rejected
		agg.Timeouts += s.Timeouts
		agg.LatticePrefixHits += s.LatticePrefixHits
		agg.LatticePrefixMisses += s.LatticePrefixMisses
		agg.LatticePrefixEvicts += s.LatticePrefixEvicts
		batchSum += s.MeanBatchSize * float64(s.Batches)
	}
	put("server.result_cache_hit_ratio", ratio(float64(agg.ResultCacheHits), float64(agg.ResultCacheHits+agg.ResultCacheMisses)), "ratio")
	put("server.mean_batch_size", ratio(batchSum, float64(agg.Batches)), "jobs")
	put("server.gang_job_ratio", ratio(float64(agg.GangJobs), float64(agg.Parses)), "ratio")
	put("server.rejected", float64(agg.Rejected), "count")
	put("server.timeouts", float64(agg.Timeouts), "count")

	// router and the client's own hop.
	put("router.self_us", lt.meanUS("router", true, 0), "us")
	put("http.client_us", lt.meanUS("client", true, calls), "us")
	put("router.hot_promotions", float64(rs.HotKeyPromotions), "count")
	put("router.hedges", float64(rs.Hedges), "count")
	put("router.hedge_wins", float64(rs.HedgeWins), "count")
	put("router.failovers", float64(rs.Failovers), "count")
	put("router.sheds", float64(rs.ShedsInteractive+rs.ShedsBulk), "count")
	put("router.shard_skew", shardSkew(rs.Requests), "ratio")

	// latticeserve and lattice: the replay's timings; the prefix cache
	// as the served stream used it, or as the replay used it when no
	// served call decoded a lattice.
	put("latticeserve.decode_ms", lt.meanUS("latticeserve.decode", false, 0)/1e3, "ms")
	put("lattice.expand_us", lt.meanUS("lattice.expand", false, 0), "us")
	put("latticeserve.paths_per_slot", ratio(float64(lr.latPath), float64(lr.latSlots)), "paths")
	put("latticeserve.built_slots_per_path", ratio(float64(lr.latBuilt), float64(lr.latPath)), "ratio")
	hits, misses, evicts := agg.LatticePrefixHits, agg.LatticePrefixMisses, agg.LatticePrefixEvicts
	if hits+misses == 0 {
		hits, misses, evicts = lr.latStats.Hits, lr.latStats.Misses, lr.latStats.Evictions
	}
	put("latticeserve.prefix_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	put("latticeserve.prefix_evictions", float64(evicts), "count")

	exact := map[string]uint64{
		"cdg.constraint_checks": lr.checks,
		"cn.filter_iters":       lr.iters,
		"maspar.cycles":         lr.maspar.Cycles,
		"maspar.scan_ops":       lr.maspar.ScanOps,
		"maspar.router_ops":     lr.maspar.RouterOps,
		"maspar.virtual_layers": lr.maspar.VirtualLayers,
	}
	bad, err := checkExact(cfg, exact)
	if err != nil {
		return err
	}
	*problems = append(*problems, bad...)
	return nil
}

// closureTolerancePct bounds how far the summed self times may drift
// from the summed root spans. Only overlapping siblings (a hedge racing
// its primary) make them differ.
const closureTolerancePct = 5.0

// check runs the oracle over a pass's answers and adds its ops,
// failures and mismatches to the result.
func check(p phase, w traffic, res *result, problems *[]string, stdout io.Writer) {
	checked, bad := w.oracle().checkAll(verdicts(p.outs))
	a, f := p.ops()
	res.Attempted += a
	res.Failed += f + len(bad)
	*problems = append(*problems, bad...)
	fmt.Fprintf(stdout, "calls=%d ops=%d failed=%d oracle-checked=%d oracle-mismatches=%d\n", len(p.outs), a, f, checked, len(bad))
	shown := 0
	for _, o := range p.outs {
		if o.why != "" && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: call %d failed: %s\n", o.op, o.why)
			shown++
		}
	}
}

// attachServerTimes records each call's queue and engine time as child
// spans of the earliest-ending shard span of that call, laid end to end
// from the span's start and clipped to it.
func attachServerTimes(tr *tracer, spans []span, outs []outcome) {
	byOp := map[int64]span{}
	for _, s := range spans {
		if s.Name != "server" || s.Op < 0 {
			continue
		}
		if prev, ok := byOp[s.Op]; !ok || s.End < prev.End {
			byOp[s.Op] = s
		}
	}
	for _, o := range outs {
		s, ok := byOp[o.op]
		if !ok {
			continue
		}
		q := min(s.Start+int64(o.queue), s.End)
		e := min(q+int64(o.engine), s.End)
		if q > s.Start {
			tr.add("server.queue", o.op, s.ID, s.Start, q)
		}
		if e > q {
			tr.add("server.engine", o.op, s.ID, q, e)
		}
	}
}

// shardSkew is the busiest shard's request count over the mean.
func shardSkew(reqs map[string]uint64) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var sum, top uint64
	for _, v := range reqs {
		sum += v
		top = max(top, v)
	}
	return ratio(float64(top), float64(sum)/float64(len(reqs)))
}
