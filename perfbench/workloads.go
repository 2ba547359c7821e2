package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/cdg"
	"repro/internal/grammars"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// traffic is one seeded workload. A run is the sequence of calls
// 0, 1, 2, … — call i is fixed by the seed alone, so two runs of one
// seed send the same requests in the same order.
type traffic interface {
	// boot starts the servers (and router) on loopback listeners; a
	// non-nil tracer wraps their handlers in spans.
	boot(tr *tracer) (*topology, error)
	clients() int
	// warmup is how many leading calls the set-up serves before the
	// measured phase starts.
	warmup() int
	// tail is the latency percentile tail_ms reports: the highest one a
	// run has at least ten samples beyond.
	tail() float64
	call(ctx context.Context, c *caller, i int) outcome
	// oracle checks the verdicts the calls recorded.
	oracle() *oracle
	// ladder returns the inputs the traced run replays through each
	// engine layer: whole sentences, 8 same-length sentences for the
	// MasPar rungs, and lattices for the lattice rung.
	ladder() (sents [][]string, gang [][]string, lats [][][]string)
}

// topology is a booted system: the URL callers use, and what to stop.
type topology struct {
	url    string
	shards []*server.Server
	rt     *router.Router
	stop   []func()
}

func (t *topology) close() {
	for i := len(t.stop) - 1; i >= 0; i-- {
		t.stop[i]()
	}
}

// addShard starts one parsecd on a loopback listener.
func (t *topology) addShard(cfg server.Config, tr *tracer) string {
	s := server.New(cfg)
	ts := httptest.NewServer(tr.wrap("server", s.Handler()))
	t.shards = append(t.shards, s)
	t.stop = append(t.stop, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // no listener of its own; this drains the pool
	})
	return ts.URL
}

// The English grammar is the one every workload parses.
const grammarName = "english"

func english() *cdg.Grammar {
	g, err := grammars.ByName(grammarName)
	if err != nil {
		panic(err) // built-in; cannot fail
	}
	return g
}

// sampled picks a seeded sample of call indices: call i is checked when
// its hash lands in one of n buckets (n <= 1 checks every call).
func sampled(seed uint64, i, n int) bool {
	return n <= 1 || mix(seed^0x5a5a, uint64(i))%uint64(n) == 0
}

// parseCall is one POST /v1/parse of words; the verdict is recorded
// when check is set.
func parseCall(ctx context.Context, c *caller, i int, req server.ParseRequest, check bool) outcome {
	out := outcome{op: int64(i), ops: 1}
	var res server.ParseResult
	status, lat, err := c.postJSON(ctx, int64(i), "/v1/parse", req, &res)
	out.lat = []time.Duration{lat}
	if err != nil || status != http.StatusOK {
		out.failed, out.why = 1, fmt.Sprintf("status %d: %v", status, err)
		return out
	}
	out.queue = time.Duration(res.QueueTimeUS) * time.Microsecond
	out.engine = time.Duration(res.HostTimeUS) * time.Microsecond
	if check {
		out.got = []verdict{verdictOf(req.Sentence, &res, true)}
	}
	return out
}

// parseCold: distinct English sentences of 6–16 words, serial backend,
// one parsecd; the result cache only ever misses.
type parseCold struct {
	seed  uint64
	sents *sentenceTable
	every int // the oracle checks one call in every
	orc   *oracle
}

func newParseCold(seed uint64, every int) *parseCold {
	return &parseCold{seed: seed, sents: newSentenceTable(seed, 6, 16), every: every,
		orc: newOracle(english(), 0, false, false)}
}

func (w *parseCold) tail() float64 { return 0.99 }
func (w *parseCold) clients() int  { return 2 }
func (w *parseCold) warmup() int   { return 16 }

func (w *parseCold) boot(tr *tracer) (*topology, error) {
	t := &topology{}
	t.url = t.addShard(server.Config{Workers: 2, ResultCacheEntries: coldCacheEntries}, tr)
	return t, nil
}

// The parse workloads cap each parsecd's result cache below the number
// of distinct sentences a run sends, so the cache reaches its steady
// state (full, evicting) early in the run and the measured phase is the
// same from start to end however many calls a host manages. The fleet's
// two caches together hold about half of its pool: most calls hit, and
// misses keep arriving at a steady rate.
const (
	coldCacheEntries  = 256
	fleetCacheEntries = 512
)

func (w *parseCold) call(ctx context.Context, c *caller, i int) outcome {
	req := server.ParseRequest{Grammar: grammarName, Backend: "serial", Sentence: w.sents.get(i).words}
	return parseCall(ctx, c, i, req, sampled(w.seed, i, w.every))
}

func (w *parseCold) oracle() *oracle { return w.orc }

func (w *parseCold) ladder() ([][]string, [][]string, [][][]string) {
	var sents [][]string
	var lats [][][]string
	for i := w.warmup(); len(sents) < ladderSentences; i++ {
		s := w.sents.get(i)
		sents = append(sents, s.words)
		if len(lats) < ladderLattices {
			lats = append(lats, s.lat)
		}
	}
	return sents, w.gangOf(gangMinWords), lats
}

// gangOf returns the first 8 measured sentences of n words.
func (w *parseCold) gangOf(n int) [][]string {
	var g [][]string
	for i := w.warmup(); len(g) < gangBatch; i++ {
		if s := w.sents.get(i); len(s.words) == n {
			g = append(g, s.words)
		}
	}
	return g
}

// gangMinWords is the shortest parse-cold sentence.
const gangMinWords = 6

// parseZipfFleet: Zipf(1.1) draws over 2,000 English sentences of 4–12
// words, through the router in front of two single-worker shards.
type parseZipfFleet struct {
	pool []sentence
	z    *zipf
	warm int
	orc  *oracle
}

const fleetPool = 2000

func newParseZipfFleet(seed uint64, warm int) *parseZipfFleet {
	t := newSentenceTable(seed, 4, 12)
	pool := make([]sentence, fleetPool)
	for i := range pool {
		pool[i] = t.get(i)
	}
	return &parseZipfFleet{pool: pool, z: newZipf(seed^0x21f, fleetPool, 1.1), warm: warm,
		orc: newOracle(english(), 0, false, false)}
}

func (w *parseZipfFleet) oracle() *oracle { return w.orc }

func (w *parseZipfFleet) tail() float64 { return 0.99 }
func (w *parseZipfFleet) clients() int  { return 2 }
func (w *parseZipfFleet) warmup() int   { return w.warm }

func (w *parseZipfFleet) boot(tr *tracer) (*topology, error) {
	t := &topology{}
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, t.addShard(server.Config{Workers: 1, ShardName: "s" + strconv.Itoa(i), ResultCacheEntries: fleetCacheEntries}, tr))
	}
	// Hedging stays off: the router relays a hedged forward's body after
	// cancelling its context, which now and then truncates a 200 reply
	// (see README.md).
	cfg := router.Config{Shards: urls, ReplicateTop: 8, ProbeInterval: -1}
	if tr != nil {
		cfg.Client = &http.Client{Transport: tr.transport(http.DefaultTransport)}
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.close()
		return nil, err
	}
	ts := httptest.NewServer(tr.wrap("router", rt.Handler()))
	t.rt, t.url = rt, ts.URL
	t.stop = append(t.stop, ts.Close)
	return t, nil
}

func (w *parseZipfFleet) call(ctx context.Context, c *caller, i int) outcome {
	req := server.ParseRequest{Grammar: grammarName, Backend: "serial", Sentence: w.pool[w.z.draw(i)].words}
	return parseCall(ctx, c, i, req, true)
}

func (w *parseZipfFleet) ladder() ([][]string, [][]string, [][][]string) {
	// The most requested sentences, in rank order.
	var sents [][]string
	var lats [][][]string
	for k := 0; k < ladderSentences; k++ {
		sents = append(sents, w.pool[k].words)
		if k < ladderLattices {
			lats = append(lats, w.pool[k].lat)
		}
	}
	// The 8 most requested 4-word sentences.
	var gang [][]string
	for k := 0; len(gang) < gangBatch && k < len(w.pool); k++ {
		if len(w.pool[k].words) == 4 {
			gang = append(gang, w.pool[k].words)
		}
	}
	return sents, gang, lats
}

// masparGang: batches of 8 distinct 5-word sentences on the MasPar
// backend with the result cache bypassed, from one caller, so the
// server gangs each batch onto one simulated PE array.
type masparGang struct {
	seed uint64
	pool []sentence
	orc  *oracle
}

const (
	gangPool  = 64
	gangBatch = 8
	gangWords = 5
)

func newMasparGang(seed uint64) *masparGang {
	t := newSentenceTable(seed, gangWords, gangWords)
	pool := make([]sentence, gangPool)
	for i := range pool {
		pool[i] = t.get(i)
	}
	return &masparGang{seed: seed, pool: pool, orc: newOracle(english(), 0, false, true)}
}

func (w *masparGang) oracle() *oracle { return w.orc }

func (w *masparGang) tail() float64 { return 0.90 }
func (w *masparGang) clients() int  { return 1 }
func (w *masparGang) warmup() int   { return 2 }

func (w *masparGang) boot(tr *tracer) (*topology, error) {
	t := &topology{}
	t.url = t.addShard(server.Config{}, tr)
	return t, nil
}

// batch returns the distinct pool members call i sends.
func (w *masparGang) batch(i int) [][]string {
	r := rng{mix(w.seed^0x9a9, uint64(i))}
	picked := make(map[int]bool, gangBatch)
	var out [][]string
	for len(out) < gangBatch {
		k := r.intn(len(w.pool))
		if !picked[k] {
			picked[k] = true
			out = append(out, w.pool[k].words)
		}
	}
	return out
}

func (w *masparGang) call(ctx context.Context, c *caller, i int) outcome {
	words := w.batch(i)
	breq := server.BatchRequest{Requests: make([]server.ParseRequest, len(words))}
	for j, s := range words {
		breq.Requests[j] = server.ParseRequest{Grammar: grammarName, Backend: "maspar", Sentence: s, NoCache: true}
	}
	out := outcome{op: int64(i), ops: len(words)}
	var res server.BatchResult
	status, lat, err := c.postJSON(ctx, int64(i), "/v1/batch", breq, &res)
	out.lat = []time.Duration{lat}
	if err != nil || status != http.StatusOK || len(res.Results) != len(words) {
		out.failed, out.why = len(words), fmt.Sprintf("status %d: %v", status, err)
		return out
	}
	for j := range res.Results {
		r := &res.Results[j]
		if r.Error != "" {
			out.failed, out.why = out.failed+1, r.Error
			continue
		}
		// A gang's members each report the gang's wall clock split
		// evenly, so the call's engine time is one member's share times
		// the gang size; members run in parallel gangs at most.
		out.engine = max(out.engine, time.Duration(r.HostTimeUS*int64(max(r.BatchSize, 1)))*time.Microsecond)
		out.queue = max(out.queue, time.Duration(r.QueueTimeUS)*time.Microsecond)
		out.got = append(out.got, verdictOf(words[j], r, true))
	}
	return out
}

func (w *masparGang) ladder() ([][]string, [][]string, [][][]string) {
	var sents [][]string
	var lats [][][]string
	for k := 0; k < ladderSentences && k < len(w.pool); k++ {
		sents = append(sents, w.pool[k].words)
		if k < ladderLattices {
			lats = append(lats, w.pool[k].lat)
		}
	}
	return sents, sents[:gangBatch], lats
}

// latticeStream: utterances of 8–14 slots × 3 alternatives streamed a
// slot at a time to the prefix engine, from two callers.
type latticeStream struct {
	seed  uint64
	every int
	orc   *oracle
}

const (
	streamMaxPaths  = 16
	streamMaxParses = 1
)

func newLatticeStream(seed uint64, every int) *latticeStream {
	return &latticeStream{seed: seed, every: every, orc: newOracle(english(), streamMaxParses, true, false)}
}

func (w *latticeStream) oracle() *oracle { return w.orc }

func (w *latticeStream) tail() float64 { return 0.99 }
func (w *latticeStream) clients() int  { return 2 }
func (w *latticeStream) warmup() int   { return 4 }

func (w *latticeStream) boot(tr *tracer) (*topology, error) {
	t := &topology{}
	t.url = t.addShard(server.Config{Workers: 2}, tr)
	return t, nil
}

// utterance is call i's lattice: 8 + i mod 7 slots, so every seed
// streams the same mix of lengths, and a variant distinct per call.
func (w *latticeStream) utterance(i int) [][]string {
	return workload.EnglishLattice(8+i%7, 3, w.seed+uint64(i))
}

func (w *latticeStream) call(ctx context.Context, c *caller, i int) outcome {
	lat := w.utterance(i)
	slots := make([][]server.LatticeAlt, len(lat))
	for k, alts := range lat {
		slots[k] = make([]server.LatticeAlt, len(alts))
		for j, word := range alts {
			// The recognizer's first alternative scores best.
			slots[k][j] = server.LatticeAlt{Word: word, Score: -float64(j)}
		}
	}
	header := server.LatticeRequest{Grammar: grammarName, UtteranceID: "u" + strconv.Itoa(i), MaxPaths: streamMaxPaths, MaxParses: streamMaxParses}
	lats, final, failed, why := c.stream(ctx, int64(i), header, slots)
	out := outcome{op: int64(i), ops: len(slots), failed: failed, why: why, lat: lats}
	if final != nil && sampled(w.seed, i, w.every) {
		for _, h := range final.Hypotheses {
			out.got = append(out.got, verdict{words: h.Words, accepted: h.Accepted, numParses: h.NumParses, parses: hashParses(h.Parses)})
		}
		if len(final.Hypotheses) != min(streamMaxPaths, final.Paths) {
			out.failed, out.why = out.failed+1, fmt.Sprintf("%d final hypotheses for %d paths", len(final.Hypotheses), final.Paths)
		}
	}
	return out
}

func (w *latticeStream) ladder() ([][]string, [][]string, [][][]string) {
	var sents, gang [][]string
	var lats [][][]string
	for i := w.warmup(); len(sents) < ladderSentences; i++ {
		lat := w.utterance(i)
		if len(lats) < ladderLattices {
			lats = append(lats, lat)
		}
		// The utterance's grammatical path and its 5-slot prefix, both
		// of which the stream decodes.
		best := make([]string, len(lat))
		for k, alts := range lat {
			best[k] = alts[0]
		}
		sents = append(sents, best)
		if len(gang) < gangBatch {
			gang = append(gang, best[:gangWords])
		}
	}
	return sents, gang, lats
}

// Ladder sizes: sentences through the serial rungs, lattices through
// the lattice rung.
const (
	ladderSentences = 32
	ladderLattices  = 4
)

func newWorkload(name string, seed uint64, tiny bool) (traffic, error) {
	every := 8
	warm := 300
	if tiny {
		every, warm = 1, 20
	}
	switch name {
	case "parse-cold":
		return newParseCold(seed, every), nil
	case "parse-zipf-fleet":
		return newParseZipfFleet(seed, warm), nil
	case "maspar-gang":
		return newMasparGang(seed), nil
	case "lattice-stream":
		return newLatticeStream(seed, every), nil
	}
	return nil, fmt.Errorf("unknown workload %q (parse-cold|parse-zipf-fleet|maspar-gang|lattice-stream)", name)
}
