package router

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// shardCounters is one shard's routing accounting.
type shardCounters struct {
	requests    uint64 // requests this shard answered (terminal responses)
	errors      uint64 // transport errors + retryable 5xx observed from it
	ejections   uint64
	probations  uint64
	readmission uint64

	inflight     int // forwards currently in flight (admission control)
	inflightHigh int // high-water mark of inflight since start
}

// routerMetrics is the router's own observability state, emitted as
// parsecrouter_* series alongside the aggregated parsecd_* families.
type routerMetrics struct {
	started time.Time

	mu sync.Mutex
	// Guarded by mu: the per-shard counter table and the fleet-wide
	// scalar counters below it.
	perShard      map[string]*shardCounters
	failovers     uint64 // requests moved to a lower-ranked shard
	emptyFleet    uint64 // requests refused because no shard was eligible
	probes        uint64
	probeFailures uint64
	scrapeErrors  uint64 // /metrics scrapes of a shard that failed

	hotKeyPromotions uint64 // keys promoted to replicated
	hotKeyDemotions  uint64 // promoted keys demoted back to their primary
	hotKeyWarms      uint64 // replica warm-up requests completed
	hedges           uint64 // duplicate requests fired at the next replica
	hedgeWins        uint64 // hedged duplicates that answered first
	hedgeCancels     uint64 // losing attempts observed context-cancelled
	shedsInteractive uint64 // interactive requests refused by admission
	shedsBulk        uint64 // bulk requests refused by admission
	cacheHits        uint64 // /v1/parse requests answered from the router cache
	cacheMisses      uint64 // router-cache lookups whose request went on to a shard
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{started: time.Now(), perShard: make(map[string]*shardCounters)}
}

// forShard returns url's counter record, creating it on first use.
// Caller holds mu.
func (m *routerMetrics) forShard(url string) *shardCounters {
	sc, ok := m.perShard[url]
	if !ok {
		sc = &shardCounters{}
		m.perShard[url] = sc
	}
	return sc
}

func (m *routerMetrics) countServed(url string) {
	m.mu.Lock()
	m.forShard(url).requests++
	m.mu.Unlock()
}

func (m *routerMetrics) countError(url string) {
	m.mu.Lock()
	m.forShard(url).errors++
	m.mu.Unlock()
}

func (m *routerMetrics) countFailover() {
	m.mu.Lock()
	m.failovers++
	m.mu.Unlock()
}

func (m *routerMetrics) countEmptyFleet() {
	m.mu.Lock()
	m.emptyFleet++
	m.mu.Unlock()
}

func (m *routerMetrics) countEjection(url string) {
	m.mu.Lock()
	m.forShard(url).ejections++
	m.mu.Unlock()
}

func (m *routerMetrics) countProbation(url string) {
	m.mu.Lock()
	m.forShard(url).probations++
	m.mu.Unlock()
}

func (m *routerMetrics) countReadmission(url string) {
	m.mu.Lock()
	m.forShard(url).readmission++
	m.mu.Unlock()
}

func (m *routerMetrics) countProbe(ok bool) {
	m.mu.Lock()
	m.probes++
	if !ok {
		m.probeFailures++
	}
	m.mu.Unlock()
}

func (m *routerMetrics) countScrapeError() {
	m.mu.Lock()
	m.scrapeErrors++
	m.mu.Unlock()
}

func (m *routerMetrics) countHotKeyPromotion() {
	// Called with hotTracker.mu held; mu nests strictly inside it
	// (routerMetrics never calls back into the tracker).
	m.mu.Lock()
	m.hotKeyPromotions++
	m.mu.Unlock()
}

func (m *routerMetrics) countHotKeyDemotion() {
	m.mu.Lock()
	m.hotKeyDemotions++
	m.mu.Unlock()
}

func (m *routerMetrics) countHotKeyWarm() {
	m.mu.Lock()
	m.hotKeyWarms++
	m.mu.Unlock()
}

func (m *routerMetrics) countHedge() {
	m.mu.Lock()
	m.hedges++
	m.mu.Unlock()
}

func (m *routerMetrics) countHedgeWin() {
	m.mu.Lock()
	m.hedgeWins++
	m.mu.Unlock()
}

func (m *routerMetrics) countHedgeCancel() {
	m.mu.Lock()
	m.hedgeCancels++
	m.mu.Unlock()
}

func (m *routerMetrics) countShed(class reqClass) {
	m.mu.Lock()
	if class == classBulk {
		m.shedsBulk++
	} else {
		m.shedsInteractive++
	}
	m.mu.Unlock()
}

func (m *routerMetrics) countCacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

func (m *routerMetrics) countCacheMiss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

// admitInflight claims an in-flight slot on url unless limit is
// reached, tracking the high-water mark. It is the admission-control
// hot path: one mutex hold, no allocation past the first request per
// shard.
func (m *routerMetrics) admitInflight(url string, limit int) bool {
	m.mu.Lock()
	sc := m.forShard(url)
	if sc.inflight >= limit {
		m.mu.Unlock()
		return false
	}
	sc.inflight++
	if sc.inflight > sc.inflightHigh {
		sc.inflightHigh = sc.inflight
	}
	m.mu.Unlock()
	return true
}

// releaseInflight returns url's slot.
func (m *routerMetrics) releaseInflight(url string) {
	m.mu.Lock()
	sc := m.forShard(url)
	if sc.inflight > 0 {
		sc.inflight--
	}
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of the router counters (tests,
// parsecrouter's drain log).
type Stats struct {
	Requests     map[string]uint64 // per shard
	Errors       map[string]uint64
	Ejections    map[string]uint64
	Inflight     map[string]int // per-shard forwards currently in flight
	InflightHigh map[string]int // per-shard in-flight high-water mark

	Failovers     uint64
	EmptyFleet    uint64
	Probes        uint64
	ProbeFailures uint64

	HotKeyPromotions uint64
	HotKeyDemotions  uint64
	HotKeyWarms      uint64
	Hedges           uint64
	HedgeWins        uint64
	HedgeCancels     uint64
	ShedsInteractive uint64
	ShedsBulk        uint64
	CacheHits        uint64 // /v1/parse requests answered from the router cache
	CacheMisses      uint64 // router-cache lookups whose request went on to a shard
}

func (m *routerMetrics) stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Requests:     make(map[string]uint64),
		Errors:       make(map[string]uint64),
		Ejections:    make(map[string]uint64),
		Inflight:     make(map[string]int),
		InflightHigh: make(map[string]int),

		Failovers:     m.failovers,
		EmptyFleet:    m.emptyFleet,
		Probes:        m.probes,
		ProbeFailures: m.probeFailures,

		HotKeyPromotions: m.hotKeyPromotions,
		HotKeyDemotions:  m.hotKeyDemotions,
		HotKeyWarms:      m.hotKeyWarms,
		Hedges:           m.hedges,
		HedgeWins:        m.hedgeWins,
		HedgeCancels:     m.hedgeCancels,
		ShedsInteractive: m.shedsInteractive,
		ShedsBulk:        m.shedsBulk,
		CacheHits:        m.cacheHits,
		CacheMisses:      m.cacheMisses,
	}
	for url, sc := range m.perShard {
		st.Requests[url] = sc.requests
		st.Errors[url] = sc.errors
		st.Ejections[url] = sc.ejections
		st.Inflight[url] = sc.inflight
		st.InflightHigh[url] = sc.inflightHigh
	}
	return st
}

// writePrometheus emits the parsecrouter_* series in deterministic
// (sorted) order. statuses is the fleet snapshot for the liveness
// gauge.
func (m *routerMetrics) writePrometheus(out io.Writer, statuses []ShardStatus) {
	// Snapshot under mu, write after: out is the scraper's connection,
	// and holding the routing-path mutex across it would let a slow
	// scraper stall countServed on every proxied request (lockorder
	// enforces this).
	m.mu.Lock()
	urls := make([]string, 0, len(m.perShard))
	for u := range m.perShard {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	rows := make([]shardCounters, len(urls))
	for i, u := range urls {
		rows[i] = *m.perShard[u]
	}
	failovers, emptyFleet := m.failovers, m.emptyFleet
	probes, probeFailures, scrapeErrors := m.probes, m.probeFailures, m.scrapeErrors
	promotions, demotions, warms := m.hotKeyPromotions, m.hotKeyDemotions, m.hotKeyWarms
	hedges, hedgeWins, hedgeCancels := m.hedges, m.hedgeWins, m.hedgeCancels
	shedInteractive, shedBulk := m.shedsInteractive, m.shedsBulk
	cacheHits, cacheMisses := m.cacheHits, m.cacheMisses
	started := m.started
	m.mu.Unlock()

	w := metrics.NewWriter(out)
	perShard := func(name, help string, get func(*shardCounters) uint64) {
		w.Header(name, "counter", help)
		for i, u := range urls {
			w.Sample(name, float64(get(&rows[i])), "shard", u)
		}
	}
	perShard("parsecrouter_shard_requests_total", "requests answered by each shard", func(sc *shardCounters) uint64 { return sc.requests })
	perShard("parsecrouter_shard_errors_total", "transport errors and retryable 5xx responses per shard", func(sc *shardCounters) uint64 { return sc.errors })
	perShard("parsecrouter_shard_ejections_total", "times each shard was ejected from the fleet", func(sc *shardCounters) uint64 { return sc.ejections })
	perShard("parsecrouter_shard_probations_total", "times each shard entered probation after ejection", func(sc *shardCounters) uint64 { return sc.probations })
	perShard("parsecrouter_shard_readmissions_total", "times each shard was promoted from probation back to live", func(sc *shardCounters) uint64 { return sc.readmission })

	w.Counter("parsecrouter_failovers_total", "requests retried on a lower-ranked shard", failovers)
	w.Counter("parsecrouter_empty_fleet_total", "requests refused because no shard was eligible", emptyFleet)
	w.Counter("parsecrouter_probes_total", "health probes sent", probes)
	w.Counter("parsecrouter_probe_failures_total", "health probes that failed", probeFailures)
	w.Counter("parsecrouter_scrape_errors_total", "per-shard /metrics scrapes that failed during aggregation", scrapeErrors)
	w.Counter("parsecrouter_hotkey_promotions_total", "keys promoted to replicated across their HRW prefix", promotions)
	w.Counter("parsecrouter_hotkey_demotions_total", "promoted keys demoted back to their primary shard", demotions)
	w.Counter("parsecrouter_hotkey_warms_total", "replica warm-up requests completed after promotion", warms)
	w.Counter("parsecrouter_hedges_total", "duplicate requests fired at the next replica", hedges)
	w.Counter("parsecrouter_hedge_wins_total", "hedged duplicates that answered before the primary", hedgeWins)
	w.Counter("parsecrouter_hedge_cancels_total", "losing hedge attempts observed context-cancelled", hedgeCancels)
	w.Header("parsecrouter_sheds_total", "counter", "requests refused by admission control per class")
	w.Sample("parsecrouter_sheds_total", float64(shedInteractive), "class", "interactive")
	w.Sample("parsecrouter_sheds_total", float64(shedBulk), "class", "bulk")
	w.Counter("parsecrouter_result_cache_hits_total", "parse requests answered from the router's result cache", cacheHits)
	w.Counter("parsecrouter_result_cache_misses_total", "router result-cache lookups whose request went on to a shard", cacheMisses)

	w.Header("parsecrouter_shard_inflight", "gauge", "forwards currently in flight per shard (admission control)")
	for i, u := range urls {
		w.Sample("parsecrouter_shard_inflight", float64(rows[i].inflight), "shard", u)
	}

	w.Header("parsecrouter_shard_eligible", "gauge", "whether each shard currently receives traffic (live or probation)")
	for _, st := range statuses {
		v := 0.0
		if st.State != StateEjected {
			v = 1
		}
		w.Sample("parsecrouter_shard_eligible", v, "shard", st.URL, "state", st.StateName)
	}
	w.Uptime("parsecrouter_uptime_seconds", "seconds since the router started", started)
}
