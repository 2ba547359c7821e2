package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/latticeserve"
)

// Config tunes the service. Zero values take the defaults noted.
type Config struct {
	// Addr is the listen address for Start (default "127.0.0.1:8723").
	Addr string
	// Workers is the worker count per backend queue (default 2).
	Workers int
	// QueueDepth bounds jobs accepted but not yet executing, per
	// backend; beyond it requests get 429 (default 256).
	QueueDepth int
	// MaxBatch caps the MasPar jobs of one configuration and sentence
	// length taken by one worker from its queue, to parse back to back
	// (default 16).
	MaxBatch int
	// DefaultTimeout is the per-request deadline when the request sets
	// none (default 30s).
	DefaultTimeout time.Duration
	// ResultCacheEntries caps the memoized ParseResults served without
	// re-parsing (default 4096; negative disables the result cache).
	ResultCacheEntries int
	// ShardName, when non-empty, is echoed as the X-Parsec-Shard
	// response header on every response, so clients behind a sharding
	// router (cmd/parsecrouter) can attribute responses to the node
	// that produced them.
	ShardName string
	// LatticeMaxPaths caps candidate-path expansion per lattice
	// request; requests may ask for fewer but never more (default 64).
	LatticeMaxPaths int
	// LatticePrefixEntries caps the lattice engine's prefix-snapshot
	// cache (default 512; negative disables prefix reuse).
	LatticePrefixEntries int
	// DebugFaults mounts POST /debug/fault, which injects an artificial
	// stall into every /v1/* request ({"delay_ms": N}; 0 clears it).
	// Benchmark-fleet only — never enable it on a real deployment.
	DebugFaults bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8723"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 4096
	}
	if c.LatticeMaxPaths <= 0 {
		c.LatticeMaxPaths = 64
	}
	if c.LatticePrefixEntries == 0 {
		c.LatticePrefixEntries = latticeserve.DefaultPrefixEntries
	}
	return c
}

// Server is the parse service: HTTP handlers over the grammar cache and
// the batching worker pool.
type Server struct {
	cfg    Config
	cache  *Cache
	rcache *resultCache // nil when ResultCacheEntries < 0
	pool   *Pool
	m      *serverMetrics
	mux    *http.ServeMux

	// lattice is the incremental lattice-serving engine; latticeGate
	// bounds concurrent lattice decodes to the worker count (lattice
	// decoding runs on the handler goroutine, not the parse pool) and
	// latticeQueued tracks waiters for the 429 bound.
	lattice       *latticeserve.Engine
	latticeGate   chan struct{}
	latticeQueued atomic.Int64

	// faultDelayNs is the /debug/fault injected stall (0 when none).
	faultDelayNs atomic.Int64

	mu sync.Mutex
	hs *http.Server
	ln net.Listener
}

// New builds a ready-to-serve Server (no listener yet; use Start, or
// mount Handler on a test server).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(),
		m:     newServerMetrics(),
		mux:   http.NewServeMux(),
	}
	if cfg.ResultCacheEntries > 0 {
		s.rcache = newResultCache(cfg.ResultCacheEntries)
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, cfg.MaxBatch, s.m)
	s.pool.start()
	s.lattice = latticeserve.New(latticeserve.Config{PrefixEntries: cfg.LatticePrefixEntries})
	s.latticeGate = make(chan struct{}, cfg.Workers)
	s.mux.HandleFunc("/v1/parse", s.handleParse)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/lattice", s.handleLattice)
	s.mux.HandleFunc("/v1/lattice/stream", s.handleLatticeStream)
	s.mux.HandleFunc("/v1/grammars", s.handleGrammars)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.DebugFaults {
		s.mux.HandleFunc("/debug/fault", s.handleDebugFault)
	}
	return s
}

// Handler returns the full route tree with status accounting — what
// Start serves and what tests mount on httptest.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ShardName != "" {
			w.Header().Set(ShardHeader, s.cfg.ShardName)
		}
		s.maybeStall(r)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		s.m.countRequest(rec.status)
	})
}

// Start listens on cfg.Addr and serves in the background, returning the
// bound address (useful with port 0).
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return ln.Addr().String(), nil
}

// Shutdown gracefully drains: stop accepting connections, wait for
// in-flight handlers (bounded by ctx), then drain the worker pool so
// every accepted job has been answered before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	s.pool.Close()
	return err
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats { return s.m.snapshot(s.cache, s.rcache, s.lattice.Stats()) }

type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers see a
// Flusher through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer
// (EnableFullDuplex for the word-synchronous lattice stream).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// maxBody bounds request bodies (grammar sources included).
const maxBody = 1 << 20

// retryAfterHint is the backoff, in seconds, advertised on 429/503
// responses. Queue pressure here is transient (the pool drains in
// milliseconds under normal load), so the hint is the smallest legal
// whole-second value; parsecload -ramp honors it when backing off.
const retryAfterHint = "1"

// writeJSON answers with v's compact encoding and the newline
// json.Encoder ends it with.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	startJSON(w, status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// startJSON sets a JSON response's headers and writes its status.
func startJSON(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterHint)
	}
	w.WriteHeader(status)
}

func errResult(req ParseRequest, msg string, timedOut bool) ParseResult {
	return ParseResult{
		Sentence: req.Words(),
		Grammar:  req.Grammar,
		Backend:  req.Backend,
		TimedOut: timedOut,
		Error:    msg,
	}
}

// pending is one entry of serve between its phases.
type pending struct {
	j      *job // nil once the entry is answered without a parse
	cancel context.CancelFunc
	// key is the entry's result-cache key; f is the flight it leads,
	// or follows when follows is set. Both are empty when the entry
	// bypasses the cache.
	key     string
	f       *flight
	follows bool
}

// serve answers reqs — one /v1/parse or a /v1/batch — in three
// phases. Resolve: check every entry and answer a result-cache hit
// from its stored bytes before anything else is built; only a miss
// resolves its sentence into a job bound to its deadline and claims
// the key without blocking, so each entry is answered (an error or a
// hit), follows an identical parse already in flight, or leads a new
// one. Submit: every leader and no_cache job goes to the pool as one
// unit per backend (bulk-class units get less queue headroom). Wait:
// leaders and no_cache jobs first, then followers. Every leader has
// submitted before anything waits, and a leader waits only for its own
// job, so no two requests can wait on each other.
func (s *Server) serve(ctx context.Context, reqs []ParseRequest, bulk bool) []jobResult {
	out := make([]jobResult, len(reqs))
	ps := make([]pending, len(reqs))
	defer func() {
		// A panic must not strand the followers of a flight this call
		// leads: they re-raise it, as the leader does.
		r := recover()
		for i := range ps {
			if ps[i].cancel != nil {
				ps[i].cancel()
			}
			if r != nil && ps[i].f != nil && !ps[i].follows {
				s.rcache.abandon(ps[i].key, ps[i].f, r)
			}
		}
		if r != nil {
			panic(r)
		}
	}()

	for i := range reqs {
		req, p := &reqs[i], &ps[i]
		c, bad := s.check(req)
		if bad.status != 0 {
			out[i] = bad
			continue
		}
		cached := s.rcache != nil && !req.NoCache
		var key string
		if cached {
			// The cache key extends the pool's batching key with
			// everything else the response bytes depend on: the sentence
			// itself and the parse-rendering bound (see key.go — CacheKey
			// derives the same string for the router).
			key = cacheKeyOf(c.cfgKey, req.MaxParses, c.words)
			if body := s.rcache.lookup(key); body != nil {
				out[i] = jobResult{status: http.StatusOK, body: body}
				continue
			}
		}
		p.j, p.cancel, out[i] = s.newJob(ctx, req, c)
		if p.j == nil || !cached {
			continue
		}
		// A parse of the same key may have finished since the lookup.
		body, f, leads := s.rcache.claim(key)
		if f == nil {
			out[i], p.j = jobResult{status: http.StatusOK, body: body}, nil
			continue
		}
		p.key, p.f, p.follows = key, f, !leads
	}

	for _, b := range core.Backends() {
		var at []int
		var unit []*job
		for i := range ps {
			if j := ps[i].j; j != nil && !ps[i].follows && j.backend == b {
				at = append(at, i)
				unit = append(unit, j)
			}
		}
		if len(unit) == 0 {
			continue
		}
		if err := s.pool.Submit(unit, bulk); err != nil {
			for _, i := range at {
				out[i] = refused(reqs[i], ps[i].j.gkey, err)
			}
		}
	}

	for i := range ps {
		p := &ps[i]
		if p.j == nil || p.follows {
			continue
		}
		if out[i].status == 0 {
			out[i] = s.await(reqs[i], p.j)
		}
		if p.f != nil {
			s.rcache.finish(p.key, p.f, out[i].resp, out[i].status)
			p.f = nil
		}
	}
	for i := range ps {
		p := &ps[i]
		if !p.follows {
			continue
		}
		body, outcome := s.rcache.wait(p.j.ctx, p.f)
		switch outcome {
		case rcCoalesced:
			out[i] = jobResult{status: http.StatusOK, body: body}
		case rcExpiredWait:
			// Our deadline ended while an identical parse was in flight.
			s.m.timeouts.Add(1)
			out[i] = timedOut(reqs[i], p.j)
		default:
			// The leader failed; its outcome may be specific to that
			// request, so this entry parses on its own.
			if err := s.pool.Submit([]*job{p.j}, bulk); err != nil {
				out[i] = refused(reqs[i], p.j.gkey, err)
			} else {
				out[i] = s.await(reqs[i], p.j)
			}
			s.rcache.store(p.key, out[i].resp, out[i].status)
		}
	}
	return out
}

// checked is a request that passed the checks that cost no parse
// work: its words, machine model and compiled grammar, and the pool's
// batching key.
type checked struct {
	words   []string
	backend core.Backend
	g       *cdg.Grammar
	gkey    string
	cfgKey  string
}

// check validates req without resolving its sentence: a non-empty
// sentence, a known backend, then the grammar through the grammar
// cache. A request that fails gets its answer instead.
func (s *Server) check(req *ParseRequest) (checked, jobResult) {
	words := req.Words()
	if len(words) == 0 {
		return checked{}, jobResult{status: http.StatusBadRequest, resp: errResult(*req, "empty sentence: set \"sentence\" or \"text\"", false)}
	}
	backend, err := ParseBackend(req.Backend)
	if err != nil {
		return checked{}, jobResult{status: http.StatusBadRequest, resp: errResult(*req, err.Error(), false)}
	}
	g, key, status, err := s.lookupGrammar(req.Grammar, req.GrammarSource)
	if err != nil {
		return checked{}, jobResult{status: status, resp: errResult(*req, err.Error(), false)}
	}
	return checked{words: words, backend: backend, g: g, gkey: key, cfgKey: cfgKeyOf(key, backend, *req)}, jobResult{}
}

// newJob resolves a checked request's sentence against its grammar
// into a job bound to the request's own deadline. A sentence that does
// not resolve gets its 400 instead of a job.
func (s *Server) newJob(ctx context.Context, req *ParseRequest, c checked) (*job, context.CancelFunc, jobResult) {
	sent, err := cdg.Resolve(c.g, c.words, nil)
	if err != nil {
		res := errResult(*req, err.Error(), false)
		res.Grammar = c.gkey
		return nil, nil, jobResult{status: http.StatusBadRequest, resp: res}
	}

	jctx, cancel := context.WithTimeout(ctx, s.requestTimeout(req.TimeoutMS))
	opts := []core.Option{
		core.WithBackend(c.backend),
		core.WithFilter(!req.NoFilter),
		core.WithMaxFilterIters(req.MaxFilterIters),
	}
	if req.PEs > 0 {
		opts = append(opts, core.WithPEs(req.PEs))
	}
	return &job{
		words:     c.words,
		sent:      sent,
		g:         c.g,
		gkey:      c.gkey,
		backend:   c.backend,
		cfgKey:    c.cfgKey,
		opts:      opts,
		maxParses: req.MaxParses,
		ctx:       jctx,
		result:    make(chan jobResult, 1),
	}, cancel, jobResult{}
}

// lookupGrammar resolves a request's grammar through the grammar
// cache. A failed lookup answers 404 for an unknown built-in name and
// 400 for an inline source that does not compile.
func (s *Server) lookupGrammar(name, source string) (*cdg.Grammar, string, int, error) {
	g, key, err := s.cache.Get(name, source)
	if err != nil {
		if source == "" {
			return nil, "", http.StatusNotFound, err
		}
		return nil, "", http.StatusBadRequest, err
	}
	return g, key, http.StatusOK, nil
}

// requestTimeout is a request's deadline budget: timeoutMS when it is
// positive, else the server's DefaultTimeout.
func (s *Server) requestTimeout(timeoutMS int) time.Duration {
	if timeoutMS > 0 {
		return time.Duration(timeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// await waits for a submitted job's result or its deadline, whichever
// comes first, so an expired request answers 504 promptly even when
// the queue ahead of it is long. The worker notices the dead context
// and skips the parse; its late delivery lands in the buffered channel.
func (s *Server) await(req ParseRequest, j *job) jobResult {
	select {
	case jr := <-j.result:
		if jr.status == http.StatusGatewayTimeout {
			s.m.timeouts.Add(1)
		}
		return jr
	case <-j.ctx.Done():
		s.m.timeouts.Add(1)
		return timedOut(req, j)
	}
}

// timedOut is the 504 of a request whose deadline ended while it waited.
func timedOut(req ParseRequest, j *job) jobResult {
	res := errResult(req, j.ctx.Err().Error(), true)
	res.Grammar = j.gkey
	return jobResult{status: http.StatusGatewayTimeout, resp: res}
}

// refused maps a refused submit to 429 (queue full) or 503 (draining).
func refused(req ParseRequest, gkey string, err error) jobResult {
	res := errResult(req, err.Error(), false)
	res.Grammar = gkey
	if errors.Is(err, errQueueFull) {
		return jobResult{status: http.StatusTooManyRequests, resp: res}
	}
	return jobResult{status: http.StatusServiceUnavailable, resp: res}
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ParseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errResult(req, "malformed request: "+err.Error(), false))
		return
	}
	jr := s.serve(r.Context(), []ParseRequest{req}, BulkRequest(r))[0]
	if jr.body != nil {
		w.Header().Set(CacheHeader, "hit")
	}
	startJSON(w, jr.status)
	// A cached answer's bytes are shared by every hit, so the newline
	// is written after them, never appended to them.
	w.Write(jr.encoded())   //nolint:errcheck // client gone
	io.WriteString(w, "\n") //nolint:errcheck // client gone
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var breq BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&breq); err != nil {
		s.writeJSON(w, http.StatusBadRequest, BatchResult{})
		return
	}
	if len(breq.Requests) == 0 {
		s.writeJSON(w, http.StatusBadRequest, BatchResult{})
		return
	}
	answers := s.serve(r.Context(), breq.Requests, BulkRequest(r))
	entries := make([]json.RawMessage, len(answers))
	for i, jr := range answers {
		entries[i] = jr.encoded()
	}
	startJSON(w, http.StatusOK)
	WriteBatch(w, entries) //nolint:errcheck // client gone
}

// grammarInfo is one entry of GET /v1/grammars.
type grammarInfo struct {
	Key         string `json:"key"`
	Cached      bool   `json:"cached"`
	Roles       int    `json:"roles,omitempty"`
	Labels      int    `json:"labels,omitempty"`
	Categories  int    `json:"categories,omitempty"`
	Words       int    `json:"words,omitempty"`
	Constraints int    `json:"constraints,omitempty"`
}

func (s *Server) handleGrammars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	seen := make(map[string]bool)
	var infos []grammarInfo
	describe := func(key string, g *cdg.Grammar, cached bool) {
		infos = append(infos, grammarInfo{
			Key: key, Cached: cached,
			Roles: g.NumRoles(), Labels: g.NumLabels(), Categories: g.NumCats(),
			Words: len(g.Words()), Constraints: g.NumConstraints(),
		})
	}
	for _, key := range s.cache.Keys() {
		if g, ok := s.cache.Lookup(key); ok {
			describe(key, g, true)
			seen[key] = true
		}
	}
	for _, name := range grammars.Names() {
		if seen[name] {
			continue
		}
		g, err := grammars.ByName(name)
		if err != nil {
			continue
		}
		describe(name, g, false)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"grammars": infos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.m.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writePrometheus(w, s.cache, s.rcache, s.lattice.Stats())
}
