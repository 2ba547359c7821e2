package server

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/latticeserve"
	"repro/internal/metrics"
)

// serverMetrics aggregates the service-side observability state: HTTP
// request counts by status, the batching/queueing histograms, and the
// machine-work counters (internal/metrics.Counters) summed over every
// parse the service has executed.
type serverMetrics struct {
	started time.Time

	mu       sync.Mutex
	requests map[int]uint64 // HTTP status → count
	work     metrics.Counters

	batches   atomic.Uint64 // coalesced batches executed
	parses    atomic.Uint64 // parses executed (jobs that reached a worker)
	timeouts  atomic.Uint64 // deadline-exceeded requests
	rejected  atomic.Uint64 // queue-full rejections
	panics    atomic.Uint64 // panics recovered from parse workers
	coalesced atomic.Uint64 // jobs that shared a batch with at least one other

	latticeRequests    atomic.Uint64 // lattice decodes completed (batch + final stream)
	latticePaths       atomic.Uint64 // candidate paths expanded across lattice decodes
	latticeTruncations atomic.Uint64 // lattice decodes that hit the path budget
	latticeStreamSlots atomic.Uint64 // slots appended over streaming connections

	queueWait    *metrics.Histogram // seconds
	parseLatency *metrics.Histogram // seconds
	batchSize    *metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		started:      time.Now(),
		requests:     make(map[int]uint64),
		queueWait:    metrics.NewHistogram(metrics.LatencyBuckets()...),
		parseLatency: metrics.NewHistogram(metrics.LatencyBuckets()...),
		batchSize:    metrics.NewHistogram(metrics.BatchSizeBuckets()...),
	}
}

func (m *serverMetrics) countRequest(status int) {
	m.mu.Lock()
	m.requests[status]++
	m.mu.Unlock()
}

func (m *serverMetrics) addWork(c *metrics.Counters) {
	if c == nil {
		return
	}
	m.mu.Lock()
	m.work.Add(c)
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of the service counters, exposed
// for tests and for parsecload's end-of-run report.
type Stats struct {
	Batches   uint64
	Parses    uint64
	Timeouts  uint64
	Rejected  uint64
	Panics    uint64
	Coalesced uint64
	// GangJobs is always 0: every parse runs one sentence on one
	// machine.
	//
	// Deprecated: read Coalesced for the jobs that shared a batch.
	GangJobs      uint64
	MeanBatchSize float64
	CacheHits     uint64
	CacheMisses   uint64
	// Result-cache counters (zero when the cache is disabled).
	ResultCacheHits      uint64
	ResultCacheMisses    uint64
	ResultCacheEvictions uint64
	ResultCacheCoalesced uint64
	// Lattice-serving counters (see internal/latticeserve).
	LatticeRequests       uint64
	LatticePathsExpanded  uint64
	LatticeTruncations    uint64
	LatticeSlotsStreamed  uint64
	LatticePrefixHits     uint64
	LatticePrefixMisses   uint64
	LatticePrefixEvicts   uint64
	LatticeFallbackParses uint64
}

func (m *serverMetrics) snapshot(cache *Cache, rc *resultCache, ls latticeserve.CacheStats) Stats {
	hits, misses := cache.Stats()
	rs := rc.stats()
	return Stats{
		Batches:       m.batches.Load(),
		Parses:        m.parses.Load(),
		Timeouts:      m.timeouts.Load(),
		Rejected:      m.rejected.Load(),
		Panics:        m.panics.Load(),
		Coalesced:     m.coalesced.Load(),
		MeanBatchSize: m.batchSize.Mean(),
		CacheHits:     hits,
		CacheMisses:   misses,

		ResultCacheHits:      rs.Hits,
		ResultCacheMisses:    rs.Misses,
		ResultCacheEvictions: rs.Evictions,
		ResultCacheCoalesced: rs.Coalesced,

		LatticeRequests:       m.latticeRequests.Load(),
		LatticePathsExpanded:  m.latticePaths.Load(),
		LatticeTruncations:    m.latticeTruncations.Load(),
		LatticeSlotsStreamed:  m.latticeStreamSlots.Load(),
		LatticePrefixHits:     ls.Hits,
		LatticePrefixMisses:   ls.Misses,
		LatticePrefixEvicts:   ls.Evictions,
		LatticeFallbackParses: ls.Fallbacks,
	}
}

// writePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4).
func (m *serverMetrics) writePrometheus(out io.Writer, cache *Cache, rc *resultCache, ls latticeserve.CacheStats) {
	// Snapshot everything mu guards before writing: out is the scraper's
	// connection, and a write to it must never pace the request-count
	// hot path (lockorder enforces this).
	m.mu.Lock()
	statuses := make([]int, 0, len(m.requests))
	for s := range m.requests {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	statusCounts := make([]uint64, len(statuses))
	for i, s := range statuses {
		statusCounts[i] = m.requests[s]
	}
	work := m.work
	m.mu.Unlock()

	w := metrics.NewWriter(out)
	w.Header("parsecd_requests_total", "counter", "HTTP requests by status code")
	for i, s := range statuses {
		w.Sample("parsecd_requests_total", float64(statusCounts[i]), "code", strconv.Itoa(s))
	}

	w.Counter("parsecd_parses_total", "parses executed by the worker pool", m.parses.Load())
	w.Counter("parsecd_batches_total", "coalesced batches executed", m.batches.Load())
	w.Counter("parsecd_coalesced_jobs_total", "jobs that shared a batch with another request", m.coalesced.Load())
	w.Counter("parsecd_timeouts_total", "requests that exceeded their deadline", m.timeouts.Load())
	w.Counter("parsecd_queue_rejections_total", "requests rejected because a backend queue was full", m.rejected.Load())
	w.Counter("parsecd_panics_total", "panics recovered during parsing", m.panics.Load())

	hits, misses := cache.Stats()
	w.Counter("parsecd_grammar_cache_hits_total", "grammar cache hits", hits)
	w.Counter("parsecd_grammar_cache_misses_total", "grammar cache misses (compiles)", misses)

	rs := rc.stats()
	w.Counter("parsecd_result_cache_hits_total", "memoized parse results served without re-parsing", rs.Hits)
	w.Counter("parsecd_result_cache_misses_total", "parse requests that executed (not served from the result cache)", rs.Misses)
	w.Counter("parsecd_result_cache_evictions_total", "result-cache entries evicted at capacity", rs.Evictions)
	w.Counter("parsecd_result_cache_coalesced_inflight_total", "requests served by another request's in-flight parse", rs.Coalesced)

	lhits, lmisses := core.LayoutCacheStats()
	w.Counter("parsecd_layout_cache_hits_total", "PE-map plan cache hits (layouts reused)", lhits)
	w.Counter("parsecd_layout_cache_misses_total", "PE-map plan cache misses (layouts built)", lmisses)

	w.Counter("parsecd_eval_compiled_total", "constraints whose evaluation runs on the bytecode VM (vs the AST fallback)", cdg.EvalCacheStats())

	w.Counter("parsecd_lattice_requests_total", "lattice decodes completed (batch and final stream updates)", m.latticeRequests.Load())
	w.Counter("parsecd_lattice_paths_expanded_total", "candidate paths expanded across lattice decodes", m.latticePaths.Load())
	w.Counter("parsecd_lattice_truncations_total", "lattice decodes truncated by the path budget", m.latticeTruncations.Load())
	w.Counter("parsecd_lattice_stream_slots_total", "slots appended over word-synchronous streaming connections", m.latticeStreamSlots.Load())
	w.Counter("parsecd_lattice_prefix_cache_hits_total", "prefix slots served from cached snapshots", ls.Hits)
	w.Counter("parsecd_lattice_prefix_cache_misses_total", "prefix snapshots computed", ls.Misses)
	w.Counter("parsecd_lattice_prefix_cache_evictions_total", "prefix snapshots evicted at capacity", ls.Evictions)
	w.Counter("parsecd_lattice_fallback_parses_total", "lattice paths parsed from scratch (extension-unstable grammar)", ls.Fallbacks)

	// The machine-work accounting every engine shares (internal/metrics),
	// summed over all parses served. Full literal names: metricflow
	// requires every exposed name to be statically constant so the
	// registry (and grep) can find it.
	w.Counter("parsecd_work_constraint_checks_total", "elementary constraint evaluations", work.ConstraintChecks)
	w.Counter("parsecd_work_matrix_writes_total", "arc-matrix bit writes", work.MatrixWrites)
	w.Counter("parsecd_work_support_checks_total", "role-value support tests", work.SupportChecks)
	w.Counter("parsecd_work_eliminations_total", "role values eliminated", work.Eliminations)
	w.Counter("parsecd_work_filter_iterations_total", "consistency-maintenance passes", work.FilterIterations)
	w.Counter("parsecd_work_pram_steps_total", "synchronous P-RAM steps", work.Steps)
	w.Counter("parsecd_work_maspar_cycles_total", "simulated MasPar cycles", work.Cycles)
	w.Counter("parsecd_work_maspar_scans_total", "segmented scan invocations", work.ScanOps)
	w.Counter("parsecd_work_maspar_router_ops_total", "router point-to-point sends", work.RouterOps)
	w.Counter("parsecd_work_maspar_broadcasts_total", "ACU broadcasts", work.Broadcasts)

	w.Histogram("parsecd_queue_wait_seconds", "time requests spent queued before a worker picked them up", m.queueWait)
	w.Histogram("parsecd_parse_latency_seconds", "parse execution time per request", m.parseLatency)
	w.Histogram("parsecd_batch_size", "requests coalesced per simulator run", m.batchSize)

	w.Uptime("parsecd_uptime_seconds", "seconds since the server started", m.started)
}
