// Package router implements parsecrouter: a thin stdlib-only HTTP
// router that shards /v1/parse and /v1/batch across a fleet of parsecd
// backends. Placement is rendezvous (HRW) hashing on the server's
// canonical result-cache key (server.CacheKey), so repeated sentences
// land on the same node and its result cache stays hot; membership is
// probe-driven (consecutive-failure ejection, probation re-admission);
// failed shards are retried on the next-ranked candidate, bounded by
// the retry budget and the request deadline. A small LRU keeps the
// /v1/parse answers shards served from their result caches and answers
// repeats without a forward (cache.go). /metrics re-emits every
// shard's parsecd_* families summed, plus the router's own
// parsecrouter_* series; /v1/grammars fans out and merges
// deterministically.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// Config tunes the router. Zero values take the defaults noted.
type Config struct {
	// Addr is the listen address for Start (default "127.0.0.1:8724").
	Addr string
	// Shards is the backend fleet: parsecd base URLs (required).
	Shards []string
	// ProbeInterval is the /healthz probe period (default 1s; negative
	// disables the background prober — tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s).
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive probe failures that eject a live
	// shard (default 3).
	EjectAfter int
	// ReadmitAfter is the consecutive probe successes an ejected shard
	// needs (first one enters probation) to return to live (default 2).
	ReadmitAfter int
	// Retries bounds failover: a request may be forwarded to at most
	// 1+Retries shards, the two attempts of a hedged request included
	// (default 2).
	Retries int
	// ReplicateTop promotes up to this many hot keys to replicated
	// placement across their HRW prefix (0 disables replication).
	ReplicateTop int
	// ReplicaFactor is the replica prefix length R for promoted keys
	// (default 2 when replication is on).
	ReplicaFactor int
	// HotKeyShare is the fraction of the observation window a key must
	// carry to promote (default 0.05).
	HotKeyShare float64
	// HotKeyWindow is the sliding-window size, in requests, of the
	// hot-key tracker (default 2048).
	HotKeyWindow int
	// Hedge enables duplicate requests to the next replica for
	// replicated keys when the latency budget is half spent.
	Hedge bool
	// HedgeDelay is the earliest a hedge may fire (default 25ms): the
	// cold-start delay while a shard's latency digest has too few
	// samples, and the floor under the adaptive p99/2 budget once it
	// is warm — the floor is what keeps the hedge rate low on a
	// healthy fleet. Negative hedges immediately (deterministic
	// tests).
	HedgeDelay time.Duration
	// MaxInflight caps the router-side in-flight forwards per shard;
	// beyond it requests are shed with 429 (0 disables admission
	// control). Bulk-class requests shed at 3/4 of the cap.
	MaxInflight int
	// ResultCacheEntries caps the /v1/parse answers the router keeps to
	// answer repeats itself, without a forward (default 256; negative
	// disables the router cache). It keeps only 200s a shard served from
	// its own result cache, byte for byte, of at most 64 KiB each. The
	// default is small: the router keeps the head of the request
	// distribution, and the shards' larger caches keep the tail.
	ResultCacheEntries int
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8724"
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.ReplicateTop > 0 && c.ReplicaFactor <= 0 {
		c.ReplicaFactor = 2
	}
	if c.HotKeyShare <= 0 {
		c.HotKeyShare = 0.05
	}
	if c.HotKeyWindow <= 0 {
		c.HotKeyWindow = 2048
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = defaultCacheEntries
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Router shards parse traffic across a parsecd fleet.
type Router struct {
	cfg    Config
	fleet  *fleet
	client *http.Client
	m      *routerMetrics
	mux    *http.ServeMux
	hot    *hotTracker    // nil when replication is off
	digest *latencyDigest // per-shard latency distribution (hedge budget); nil when hedging is off
	admit  *admitState    // nil when admission control is off
	cache  *resultCache   // nil when the router cache is off

	mu sync.Mutex
	// Guarded by mu: the listener state and the prober's cancel.
	hs        *http.Server
	ln        net.Listener
	stopProbe context.CancelFunc
}

// New builds a ready-to-serve Router (no listener, no prober yet; use
// Start, or mount Handler on a test server and drive ProbeOnce).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for _, u := range cfg.Shards {
		if u == "" {
			return nil, fmt.Errorf("router: empty shard URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("router: duplicate shard URL %s", u)
		}
		seen[u] = true
	}
	m := newRouterMetrics()
	r := &Router{
		cfg:    cfg,
		fleet:  newFleet(cfg.Shards, cfg.EjectAfter, cfg.ReadmitAfter, m),
		client: cfg.Client,
		m:      m,
		mux:    http.NewServeMux(),
		hot:    newHotTracker(cfg.ReplicateTop, cfg.ReplicaFactor, cfg.HotKeyWindow, cfg.HotKeyShare),
		digest: newLatencyDigest(cfg.Hedge),
		admit:  newAdmitState(cfg.MaxInflight, m),
		cache:  newResultCache(cfg.ResultCacheEntries),
	}
	r.mux.HandleFunc("/v1/parse", r.handleParse)
	r.mux.HandleFunc("/v1/batch", r.handleBatch)
	r.mux.HandleFunc("/v1/lattice", r.handleLattice)
	r.mux.HandleFunc("/v1/lattice/stream", r.handleLatticeStream)
	r.mux.HandleFunc("/v1/grammars", r.handleGrammars)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	return r, nil
}

// Handler returns the route tree (what Start serves and what tests
// mount on httptest).
func (r *Router) Handler() http.Handler { return r.mux }

// Stats snapshots the router counters.
func (r *Router) Stats() Stats { return r.m.stats() }

// Statuses snapshots the fleet membership (configuration order).
func (r *Router) Statuses() []ShardStatus { return r.fleet.snapshot() }

// Start listens on cfg.Addr, serves in the background, and launches
// the membership prober; it returns the bound address.
func (r *Router) Start() (string, error) {
	ln, err := net.Listen("tcp", r.cfg.Addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: r.Handler()}
	pctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	r.ln, r.hs, r.stopProbe = ln, hs, cancel
	r.mu.Unlock()
	if r.cfg.ProbeInterval > 0 {
		go r.probeLoop(pctx)
	}
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return ln.Addr().String(), nil
}

// Shutdown stops the prober and gracefully drains in-flight requests
// (bounded by ctx).
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	hs, cancel := r.hs, r.stopProbe
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if hs != nil {
		return hs.Shutdown(ctx)
	}
	return nil
}

// maxBody mirrors the server's request-body bound.
const maxBody = 1 << 20

// writeJSON answers with v's compact encoding, as parsecd does.
func (r *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// errorResult mirrors the server's error responses so clients see one
// schema whether the router or a shard rejected them.
func errorResult(req server.ParseRequest, msg string) server.ParseResult {
	return server.ParseResult{
		Sentence: req.Words(),
		Grammar:  req.Grammar,
		Backend:  req.Backend,
		Error:    msg,
	}
}

// drain discards a response body so the connection can be reused.
func drain(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, maxBody)) //nolint:errcheck
}

// retryable reports whether a response status may be failed over to
// the next-ranked shard. 4xx outcomes are the request's own fault and
// must surface unchanged. 504 means the request's deadline expired
// mid-parse — retrying elsewhere would re-spend the whole budget on
// work that cannot finish in time, so it is terminal too (the shard
// did nothing wrong; see the clustertest regression tests).
func retryable(status int) bool {
	return status >= 500 && status != http.StatusGatewayTimeout
}

// forwardResult is one attempt's outcome.
type forwardResult struct {
	resp  *http.Response // nil on transport error
	shard string
	err   error
}

// forwardOnce is the only place a POST leaves the router: failover,
// hedge, warm-up and stream forwards all go through it. It makes the
// admission check, sends one POST of body to shard, marked with the
// request class, and feeds the latency into the hedge digest. shed=true
// means admission control refused the slot (no request was sent). The
// in-flight slot is held for the shard's service time (until response
// headers arrive), which is what the per-shard cap bounds; a stream
// therefore holds no slot once its shard has answered.
func (r *Router) forwardOnce(ctx context.Context, shard, path, contentType string, body io.Reader, class reqClass) (*http.Response, bool, error) {
	if !r.admit.acquire(shard, class) {
		return nil, true, nil
	}
	defer r.admit.release(shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+path, body)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(server.ClassHeader, class.String())
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode < 500 {
		// Only successful service times train the hedge budget: fail-fast
		// 5xx and deadline expiries would drag the p99 toward zero or
		// infinity and mis-time every future hedge.
		r.digest.observe(shard, time.Since(start))
	}
	return resp, false, nil
}

// replay is the body factory of a request read whole: every attempt
// sends the same bytes.
func replay(body []byte) func() io.Reader {
	return func() io.Reader { return bytes.NewReader(body) }
}

// tryShards is the router's one failover loop. It forwards to the
// ranked candidates in order until one yields a terminal response: any
// status outside the retryable set, or the last candidate's answer
// whatever it is. body builds an attempt's request body. It is called
// once up front and again only after an attempt fails with a candidate
// left, so a first-try success builds one reader; it returns nil once
// the request can no longer be replayed, which makes the failed
// attempt's response the terminal one (or ends the loop after a
// transport error). The attempt budget is 1+Retries; the request
// context bounds the whole sequence. shed=true means admission control
// refused a slot — the request is answered 429 rather than spilled to
// a shard outside its placement, which would trade a fast refusal for
// a guaranteed cache miss. The returned response's body is open; the
// caller must close it.
func (r *Router) tryShards(ctx context.Context, path string, contentType string, body func() io.Reader, order []string, class reqClass) (forwardResult, bool, bool) {
	attempts := min(r.cfg.Retries+1, len(order))
	var last forwardResult
	rd := body()
	for i := 0; i < attempts && rd != nil && ctx.Err() == nil; i++ {
		shard := order[i]
		if i > 0 {
			r.m.countFailover()
		}
		resp, shed, err := r.forwardOnce(ctx, shard, path, contentType, rd, class)
		if shed {
			return forwardResult{shard: shard}, false, true
		}
		rd = nil
		if (err != nil || retryable(resp.StatusCode)) && i+1 < attempts {
			rd = body()
		}
		if err != nil {
			// Connect/transport failure: count it and fail over.
			r.m.countError(shard)
			last = forwardResult{shard: shard, err: err}
			continue
		}
		if rd == nil {
			r.m.countServed(shard)
			return forwardResult{resp: resp, shard: shard}, true, false
		}
		r.m.countError(shard)
		drain(resp.Body)
		resp.Body.Close()
		last = forwardResult{shard: shard, err: fmt.Errorf("shard %s: status %d", shard, resp.StatusCode)}
	}
	return last, false, false
}

// shedMsg is the error a request refused by admission control carries.
const shedMsg = "shard at capacity; retry later"

// forward ends a forwarded request: it relays the shard's answer, sheds
// with 429 and a Retry-After hint when admission control refused it, or
// gives up with 503 when every candidate failed. errBody renders a
// message in the route's error schema, so clients see one schema
// whether the router or a shard rejected them. keep is the router-cache
// key a /v1/parse answer may be kept under, "" for none (see relay).
func (r *Router) forward(w http.ResponseWriter, fr forwardResult, ok, shedded bool, class reqClass, errBody func(msg string) any, keep string) {
	switch {
	case shedded:
		r.m.countShed(class)
		w.Header().Set("Retry-After", "1")
		r.writeJSON(w, http.StatusTooManyRequests, errBody(shedMsg))
	case !ok:
		r.writeJSON(w, http.StatusServiceUnavailable, errBody(fmt.Sprintf("all candidate shards failed: %v", fr.err)))
	default:
		r.relay(w, fr, keep)
	}
}

// relay copies a shard response to the client, preserving the
// response schema and attributing the shard (the backend's own
// X-Parsec-Shard header wins; an anonymous backend is attributed by
// URL). It is the one place the router cache is filled, whichever path
// (forward, failover or hedge) produced the answer: when keep is set
// and the shard answered 200 from its own result cache, a body of at
// most maxCachedBody is read whole, kept under keep, and written as
// read.
func (r *Router) relay(w http.ResponseWriter, fr forwardResult, keep string) {
	resp := fr.resp
	defer resp.Body.Close()
	var head []byte
	if keep != "" && resp.StatusCode == http.StatusOK && resp.Header.Get(server.CacheHeader) == "hit" {
		var err error
		head, err = io.ReadAll(io.LimitReader(resp.Body, maxCachedBody+1))
		if err == nil && len(head) <= maxCachedBody {
			r.cache.add(keep, head)
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		// A shard's own backpressure hint (429/503) must survive the hop
		// so clients back off against the fleet, not just the router.
		w.Header().Set("Retry-After", ra)
	}
	shard := resp.Header.Get(server.ShardHeader)
	if shard == "" {
		shard = fr.shard
	}
	w.Header().Set(server.ShardHeader, shard)
	w.WriteHeader(resp.StatusCode)
	if head != nil {
		w.Write(head) //nolint:errcheck // client gone
	}
	io.Copy(w, resp.Body) //nolint:errcheck // client gone
}

func (r *Router) handleParse(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err != nil {
		r.writeJSON(w, http.StatusBadRequest, errorResult(server.ParseRequest{}, "read request: "+err.Error()))
		return
	}
	var preq server.ParseRequest
	if err := json.Unmarshal(body, &preq); err != nil {
		r.writeJSON(w, http.StatusBadRequest, errorResult(preq, "malformed request: "+err.Error()))
		return
	}
	key, err := server.CacheKey(preq)
	if err != nil {
		// Same rejection a shard would produce (unknown backend): no
		// point spending a hop on it.
		r.writeJSON(w, http.StatusBadRequest, errorResult(preq, err.Error()))
		return
	}
	keep := ""
	if r.cache != nil && !preq.NoCache {
		// A kept answer is a pure function of its key, so it is served
		// even when no shard is eligible.
		if cached, ok := r.cache.get(key); ok {
			r.m.countCacheHit()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(server.ShardHeader, cacheAnswerer)
			w.WriteHeader(http.StatusOK)
			w.Write(cached) //nolint:errcheck // client gone
			return
		}
		keep = key
	}
	order := RankShards(r.fleet.eligible(), key)
	if len(order) == 0 {
		r.m.countEmptyFleet()
		r.writeJSON(w, http.StatusServiceUnavailable, errorResult(preq, "no live shards"))
		return
	}
	if keep != "" {
		r.m.countCacheMiss()
	}
	class := classOf(req)
	d := hotDecision{primary: order[0]}
	if len(order) > 1 {
		d.next = order[1]
	}
	if r.hot != nil {
		d = r.hot.observe(key, order, r.m)
		if d.promoted {
			// Warm the other prefix members with this very request before
			// round-robin starts, so no client ever pays a replica's cold
			// miss (detached from the request context: the warm-up must
			// outlive this response).
			go r.warmReplicas(key, body, replicaPrefix(order, r.cfg.ReplicaFactor))
		}
	}
	var fr forwardResult
	var ok, shedded bool
	if r.cfg.Hedge && d.replicated && d.next != d.primary {
		fr, ok, shedded = r.hedgedDo(req.Context(), "/v1/parse", "application/json", body, d.primary, d.next, class)
		// The two hedged attempts count against the 1+Retries budget, so
		// the fallback gets the rest of the HRW order, which neither
		// replica is in, cut to Retries-1 shards.
		rest := without(order, d.primary, d.next)
		rest = rest[:max(0, min(len(rest), r.cfg.Retries-1))]
		if !ok && !shedded && len(rest) > 0 {
			// Both replicas failed retryably.
			r.m.countFailover()
			fr, ok, shedded = r.tryShards(req.Context(), "/v1/parse", "application/json", replay(body), rest, class)
		}
	} else {
		fr, ok, shedded = r.tryShards(req.Context(), "/v1/parse", "application/json", replay(body), orderFrom(order, d.primary), class)
	}
	r.forward(w, fr, ok, shedded, class, func(msg string) any { return errorResult(preq, msg) }, keep)
}

// without returns order less the shards a and b, in HRW rank.
func without(order []string, a, b string) []string {
	out := make([]string, 0, len(order))
	for _, s := range order {
		if s != a && s != b {
			out = append(out, s)
		}
	}
	return out
}

// orderFrom rotates order so primary is attempted first, keeping the
// rest in HRW rank for failover. For unreplicated keys primary is
// order[0] already and the slice passes through untouched.
func orderFrom(order []string, primary string) []string {
	if len(order) == 0 || order[0] == primary {
		return order
	}
	out := make([]string, 0, len(order))
	out = append(out, primary)
	for _, s := range order {
		if s != primary {
			out = append(out, s)
		}
	}
	return out
}

// warmTimeout bounds one replica warm-up round.
const warmTimeout = 10 * time.Second

// warmReplicas primes a freshly promoted key's replicas (every prefix
// member past the rank-0 primary, which served it all along) by
// replaying the promoting request at each, then marks the key warm so
// observe starts round-robining. Counted per replica attempt in
// parsecrouter_hotkey_warms_total whether or not the warm succeeded —
// a failed warm just means that replica pays one cold miss later.
func (r *Router) warmReplicas(key string, body []byte, prefix []string) {
	ctx, cancel := context.WithTimeout(context.Background(), warmTimeout)
	defer cancel()
	warms := 0
	for _, shard := range prefix[1:] {
		resp, shedded, err := r.forwardOnce(ctx, shard, "/v1/parse", "application/json", bytes.NewReader(body), classInteractive)
		if err == nil && !shedded {
			drain(resp.Body)
			resp.Body.Close()
		}
		warms++
	}
	// Mark the key warm BEFORE publishing the warm counters: a non-zero
	// warms count is the observable signal (tests, /metrics) that the
	// round-robin is active, so the ready flag must already be set.
	r.hot.warmed(key)
	for ; warms > 0; warms-- {
		r.m.countHotKeyWarm()
	}
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var breq server.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBody)).Decode(&breq); err != nil {
		r.writeJSON(w, http.StatusBadRequest, server.BatchResult{})
		return
	}
	if len(breq.Requests) == 0 {
		r.writeJSON(w, http.StatusBadRequest, server.BatchResult{})
		return
	}
	eligible := r.fleet.eligible()
	if len(eligible) == 0 {
		r.m.countEmptyFleet()
		r.writeJSON(w, http.StatusServiceUnavailable, server.BatchResult{})
		return
	}
	// Partition the batch by each request's top-ranked shard, so every
	// sub-batch keeps its members' cache affinity and reaches the
	// shard's pool as one unit it can gang.
	groups := make(map[string][]int)
	orders := make(map[string][]string) // failover order per group, from its first member's key
	for i, preq := range breq.Requests {
		key, err := server.CacheKey(preq)
		if err != nil {
			key = "" // invalid backend: any shard rejects it identically
		}
		order := RankShards(eligible, key)
		top := order[0]
		if _, ok := orders[top]; !ok {
			orders[top] = order
		}
		groups[top] = append(groups[top], i)
	}
	class := classOf(req)
	results := make([]json.RawMessage, len(breq.Requests))
	var wg sync.WaitGroup
	for top, idxs := range groups {
		wg.Add(1)
		go func(top string, idxs []int) {
			defer wg.Done()
			r.forwardSubBatch(req.Context(), breq.Requests, idxs, orders[top], results, class)
		}(top, idxs)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	server.WriteBatch(w, results) //nolint:errcheck // client gone
}

// forwardSubBatch sends the requests at idxs as one batch to the
// group's ranked shards and scatters the shard's encoded results back
// into place, unparsed. A sub-batch that exhausts its candidates
// reports per-request errors (the batch schema has no per-result
// status).
func (r *Router) forwardSubBatch(ctx context.Context, reqs []server.ParseRequest, idxs []int, order []string, results []json.RawMessage, class reqClass) {
	fail := func(msg string) {
		for _, i := range idxs {
			results[i], _ = json.Marshal(errorResult(reqs[i], msg)) //nolint:errcheck // strings only: cannot fail
		}
	}
	sub := server.BatchRequest{Requests: make([]server.ParseRequest, len(idxs))}
	for j, i := range idxs {
		sub.Requests[j] = reqs[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		fail("marshal sub-batch: " + err.Error())
		return
	}
	fr, ok, shedded := r.tryShards(ctx, "/v1/batch", "application/json", replay(body), order, class)
	if shedded {
		// The batch schema has no per-result status, so a shed sub-batch
		// surfaces as per-request errors; the shed is still counted so
		// /metrics shows bulk losing headroom before interactive.
		r.m.countShed(class)
		fail(shedMsg)
		return
	}
	if !ok {
		fail(fmt.Sprintf("all candidate shards failed: %v", fr.err))
		return
	}
	defer fr.resp.Body.Close()
	// A batch reply can be many times larger than its request, so
	// maxBody, the request bound, does not apply; relay streams /v1/parse
	// replies unbounded too.
	var bres struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(fr.resp.Body).Decode(&bres); err != nil || len(bres.Results) != len(idxs) {
		fail(fmt.Sprintf("shard %s: bad batch response", fr.shard))
		return
	}
	for j, i := range idxs {
		results[i] = bres.Results[j]
	}
}

// mergedGrammar is one entry of the fanned-out /v1/grammars response.
// The schema matches the server's so single-node and cluster output
// are diffable.
type mergedGrammar struct {
	Key         string `json:"key"`
	Cached      bool   `json:"cached"`
	Roles       int    `json:"roles,omitempty"`
	Labels      int    `json:"labels,omitempty"`
	Categories  int    `json:"categories,omitempty"`
	Words       int    `json:"words,omitempty"`
	Constraints int    `json:"constraints,omitempty"`
}

func (r *Router) handleGrammars(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	eligible := r.fleet.eligible()
	if len(eligible) == 0 {
		r.m.countEmptyFleet()
		r.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"grammars": []mergedGrammar{}})
		return
	}
	type shardGrammars struct {
		Grammars []mergedGrammar `json:"grammars"`
	}
	perShard := make([][]mergedGrammar, len(eligible))
	var wg sync.WaitGroup
	for i, shard := range eligible {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			greq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, shard+"/v1/grammars", nil)
			if err != nil {
				return
			}
			resp, err := r.client.Do(greq)
			if err != nil {
				r.m.countError(shard)
				return
			}
			defer resp.Body.Close()
			var sg shardGrammars
			if resp.StatusCode == http.StatusOK &&
				json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&sg) == nil {
				perShard[i] = sg.Grammars
			}
		}(i, shard)
	}
	wg.Wait()
	// Deterministic merge: union by key (a grammar cached anywhere in
	// the fleet reports cached), sorted by key.
	byKey := make(map[string]mergedGrammar)
	for _, gs := range perShard {
		for _, g := range gs {
			if prev, ok := byKey[g.Key]; ok {
				prev.Cached = prev.Cached || g.Cached
				byKey[g.Key] = prev
				continue
			}
			byKey[g.Key] = g
		}
	}
	merged := make([]mergedGrammar, 0, len(byKey))
	for _, g := range byKey {
		merged = append(merged, g)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	r.writeJSON(w, http.StatusOK, map[string]any{"grammars": merged})
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	statuses := r.fleet.snapshot()
	eligible := 0
	for _, s := range statuses {
		if s.State != StateEjected {
			eligible++
		}
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case eligible == 0:
		status, code = "down", http.StatusServiceUnavailable
	case eligible < len(statuses):
		status = "degraded"
	}
	r.writeJSON(w, code, map[string]any{
		"status":          status,
		"eligible_shards": eligible,
		"shards":          statuses,
	})
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	eligible := r.fleet.eligible()
	type scrape struct {
		body []byte
		err  error
	}
	scrapes := make([]scrape, len(eligible))
	var wg sync.WaitGroup
	for i, shard := range eligible {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			mreq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, shard+"/metrics", nil)
			if err != nil {
				scrapes[i] = scrape{err: err}
				return
			}
			resp, err := r.client.Do(mreq)
			if err != nil {
				scrapes[i] = scrape{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 8*maxBody))
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			scrapes[i] = scrape{body: body, err: err}
		}(i, shard)
	}
	wg.Wait()
	var bodies [][]byte
	for i := range scrapes {
		if scrapes[i].err != nil {
			r.m.countScrapeError()
			continue
		}
		bodies = append(bodies, scrapes[i].body)
	}
	metrics.NewWriter(w).Families(aggregate(bodies))
	r.m.writePrometheus(w, r.fleet.snapshot())
}
