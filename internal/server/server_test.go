package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.pool.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := body.([]byte); ok {
		buf.Write(raw)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeResult(t *testing.T, data []byte) ParseResult {
	t.Helper()
	var res ParseResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return res
}

func TestParseEndpointAccepts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: "the program runs"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	res := decodeResult(t, data)
	if !res.Accepted || res.Ambiguous {
		t.Errorf("accepted=%v ambiguous=%v, want true/false", res.Accepted, res.Ambiguous)
	}
	if res.Grammar != "demo" || res.Backend != "maspar" {
		t.Errorf("grammar=%q backend=%q", res.Grammar, res.Backend)
	}
	if res.NumParses != 1 || len(res.Parses) != 1 || !strings.Contains(res.Parses[0], "SUBJ") {
		t.Errorf("parses: %d %q", res.NumParses, res.Parses)
	}
	if res.Counters == nil || res.Counters.Cycles == 0 {
		t.Errorf("expected MasPar cycle accounting, got %+v", res.Counters)
	}
	if res.BatchSize < 1 {
		t.Errorf("batch size %d", res.BatchSize)
	}
}

func TestParseEndpointAllBackends(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, b := range []string{"serial", "pram", "maspar", "mesh"} {
		status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{
			Backend:  b,
			Sentence: []string{"the", "program", "runs"},
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", b, status, data)
		}
		if res := decodeResult(t, data); !res.Accepted || res.Backend != b {
			t.Errorf("%s: accepted=%v backend=%q", b, res.Accepted, res.Backend)
		}
	}
}

func TestParseEndpointRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"malformed json", []byte("{nope"), http.StatusBadRequest},
		{"empty sentence", ParseRequest{}, http.StatusBadRequest},
		{"unknown backend", ParseRequest{Backend: "warp", Text: "a"}, http.StatusBadRequest},
		{"unknown grammar", ParseRequest{Grammar: "zzz", Text: "a"}, http.StatusNotFound},
		{"unknown word", ParseRequest{Text: "xyzzy"}, http.StatusBadRequest},
		{"bad grammar source", ParseRequest{GrammarSource: "(grammar", Text: "a"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, data := postJSON(t, ts.URL+"/v1/parse", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d want %d: %s", tc.name, status, tc.want, data)
		}
		if res := decodeResult(t, data); res.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/parse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/parse: %d", resp.StatusCode)
	}
}

const tinyGrammar = `
(grammar
  (labels A IDLE)
  (categories c)
  (role r A)
  (role aux IDLE)
  (word w c)
  (constraint "r-a" (if (eq (role x) r) (and (eq (lab x) A) (eq (mod x) nil))))
  (constraint "aux" (if (eq (role x) aux) (and (eq (lab x) IDLE) (eq (mod x) nil)))))`

func TestInlineGrammarCompiledOnceAndCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var key string
	for i := 0; i < 3; i++ {
		status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{
			GrammarSource: tinyGrammar,
			Backend:       "serial",
			Sentence:      []string{"w", "w"},
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		res := decodeResult(t, data)
		if !res.Accepted || !strings.HasPrefix(res.Grammar, "src:") {
			t.Fatalf("accepted=%v grammar=%q", res.Accepted, res.Grammar)
		}
		if key == "" {
			key = res.Grammar
		} else if res.Grammar != key {
			t.Fatalf("key changed: %q then %q", key, res.Grammar)
		}
	}
	hits, misses := s.cache.Stats()
	if misses != 1 || hits < 2 {
		t.Errorf("cache hits=%d misses=%d, want 1 compile and 2+ hits", hits, misses)
	}

	// The cached source shows up in the grammar inventory.
	resp, err := http.Get(ts.URL + "/v1/grammars")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), key) {
		t.Errorf("/v1/grammars missing %q:\n%s", key, data)
	}
}

// TestGrammarCacheStaysBounded: every distinct inline source is one
// grammar-cache entry, so a client sending more distinct sources than
// the cache holds must not grow it, or /v1/grammars, past its bound.
// The newest source stays listed, and a built-in name evicted by the
// flood resolves again to the registry's same grammar.
func TestGrammarCacheStaysBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	demo, _, err := s.cache.Get("demo", "")
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < grammarCacheEntries+16; i++ {
		src := fmt.Sprintf(`(grammar (labels L%[1]d) (categories c) (role r L%[1]d) (word w c)
  (constraint "r" (if (eq (role x) r) (and (eq (lab x) L%[1]d) (eq (mod x) nil)))))`, i)
		status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{
			GrammarSource: src, Backend: "serial", Sentence: []string{"w"}, NoCache: true,
		})
		if status != http.StatusOK {
			t.Fatalf("source %d: status %d: %s", i, status, data)
		}
		last = decodeResult(t, data).Grammar
	}
	keys := s.cache.Keys()
	if len(keys) > grammarCacheEntries {
		t.Errorf("grammar cache holds %d keys, want at most %d", len(keys), grammarCacheEntries)
	}
	if !slices.Contains(keys, last) {
		t.Errorf("newest source %s evicted; keys %v", last, keys)
	}

	resp, err := http.Get(ts.URL + "/v1/grammars")
	if err != nil {
		t.Fatal(err)
	}
	var inv struct{ Grammars []grammarInfo }
	err = json.NewDecoder(resp.Body).Decode(&inv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, g := range inv.Grammars {
		if g.Cached {
			cached++
		}
	}
	if cached > grammarCacheEntries {
		t.Errorf("/v1/grammars lists %d cached grammars, want at most %d", cached, grammarCacheEntries)
	}

	if slices.Contains(s.cache.Keys(), "demo") {
		t.Fatal("the flood did not evict demo; the test proves nothing about re-resolving it")
	}
	if again, _, err := s.cache.Get("demo", ""); err != nil || again != demo {
		t.Errorf("evicted demo re-resolved to %p (err %v), want the registry's %p", again, err, demo)
	}
}

// holdPool swaps s's pool for one whose workers have not started:
// submitted jobs stay queued until the test calls start.
func holdPool(s *Server) *Pool {
	s.pool.Close()
	s.pool = newPool(s.cfg.Workers, s.cfg.QueueDepth, s.cfg.MaxBatch, s.m)
	return s.pool
}

// awaitQueued blocks until backend b's queue holds at least n jobs,
// waking on the tokens every submit leaves for the held pool's workers.
func awaitQueued(p *Pool, b core.Backend, n int) {
	for p.Queued(b) < n {
		<-p.queues[b].wake
	}
}

func TestDeadlineExceededReturns504Promptly(t *testing.T) {
	// No worker runs, so the 1ms deadline fires while the job is still
	// queued; the handler must answer without waiting for a worker.
	s, ts := newTestServer(t, Config{})
	holdPool(s)
	start := time.Now()
	status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{
		Text:      "the program runs",
		TimeoutMS: 1,
	})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", status, data)
	}
	if res := decodeResult(t, data); !res.TimedOut {
		t.Errorf("timed_out not set: %s", data)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("504 took %v; should not wait for a worker", elapsed)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		MaxBatch:   100,
		// Identical requests must each hit the queue for this test;
		// the result cache would coalesce them.
		ResultCacheEntries: -1,
	})
	pool := holdPool(s)
	done := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: "the program runs", Backend: "serial"})
		done <- status
	}()
	// Wait for the first request to occupy the queue slot.
	awaitQueued(pool, mustBackend(t, "serial"), 1)
	status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: "the program runs", Backend: "serial"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d want 429: %s", status, data)
	}
	pool.start()
	if first := <-done; first != http.StatusOK {
		t.Fatalf("first request: status %d", first)
	}
	if s.Stats().Rejected == 0 {
		t.Error("rejection not counted")
	}
}

func mustBackend(t *testing.T, name string) (b core.Backend) {
	t.Helper()
	b, err := ParseBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchEndpointCoalesces(t *testing.T) {
	// Disable the result cache: this test asserts the pool coalesces
	// identical jobs, which requires each request to submit one.
	s, ts := newTestServer(t, Config{MaxBatch: 16, ResultCacheEntries: -1})
	breq := BatchRequest{}
	for i := 0; i < 6; i++ {
		breq.Requests = append(breq.Requests, ParseRequest{Text: "the program runs"})
	}
	status, data := postJSON(t, ts.URL+"/v1/batch", breq)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var bres BatchResult
	if err := json.Unmarshal(data, &bres); err != nil {
		t.Fatal(err)
	}
	if len(bres.Results) != 6 {
		t.Fatalf("got %d results", len(bres.Results))
	}
	for i, r := range bres.Results {
		if !r.Accepted {
			t.Errorf("result %d not accepted: %+v", i, r)
		}
	}
	if st := s.Stats(); st.MeanBatchSize <= 1 || st.Coalesced == 0 {
		t.Errorf("no coalescing: %+v", st)
	}
}

func TestShutdownDrainsInFlightRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 100, ResultCacheEntries: -1})
	pool := holdPool(s)
	const n = 5
	statuses := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			status, _ := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: "the program runs", Backend: "serial"})
			statuses <- status
		}()
	}
	// Let all five enqueue (still queued: no worker has started).
	awaitQueued(pool, mustBackend(t, "serial"), n)
	// Drain: the workers start and Close must not return before they
	// have answered every queued job.
	pool.start()
	s.pool.Close()
	for i := 0; i < n; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("drained request %d: status %d", i, status)
		}
	}
	if got := s.Stats().Parses; got != n {
		t.Errorf("parses=%d want %d", got, n)
	}
}

// TestSerialJobsNeverShareABatch: two serial parses queued together on
// two workers run one per worker; a shared batch would only run them
// back to back on one worker while the other idles.
func TestSerialJobsNeverShareABatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	pool := holdPool(s)
	statuses := make(chan int, 2)
	for _, text := range []string{"the program runs", "a program runs"} {
		go func(text string) {
			status, _ := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: text, Backend: "serial"})
			statuses <- status
		}(text)
	}
	awaitQueued(pool, mustBackend(t, "serial"), 2)
	pool.start()
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"parsecd_batch_size_bucket{le=\"1\"} 2\n",
		"parsecd_batch_size_count 2\n",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
}

// TestOppositeOrderBatchesBothAnswer: two concurrent /v1/batch calls
// carry the same two uncached sentences in opposite order, so each may
// lead one flight and follow the other's. Both must answer every entry:
// every leader submits before anything waits, so neither call can wait
// on a flight the other has not yet submitted. A wait cycle would show
// as entries timing out. Each round uses fresh sentences, and the
// rounds vary the interleaving.
func TestOppositeOrderBatchesBothAnswer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dets := []string{"the", "a", "every"}
	nouns := []string{"dog", "man", "cat", "ball", "park", "telescope"}
	for round := 0; round < 54; round++ {
		np := dets[round%3] + " " + nouns[round/3%6]
		x := np + " " + []string{"walked", "slept", "ran"}[round/18]
		y := np + " saw " + []string{"rex", "fido", "the cat"}[round/18]
		entry := func(text string) ParseRequest {
			return ParseRequest{Grammar: "english", Backend: "serial", Text: text, TimeoutMS: 10000}
		}
		results := make(chan []byte, 2)
		for _, pair := range [][2]string{{x, y}, {y, x}} {
			go func(pair [2]string) {
				status, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []ParseRequest{entry(pair[0]), entry(pair[1])}})
				if status != http.StatusOK {
					t.Errorf("round %d: status %d: %s", round, status, data)
				}
				results <- data
			}(pair)
		}
		for i := 0; i < 2; i++ {
			var out BatchResult
			if err := json.Unmarshal(<-results, &out); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for _, r := range out.Results {
				if r.Error != "" || r.TimedOut {
					t.Errorf("round %d: entry %v: error %q", round, r.Sentence, r.Error)
				}
			}
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: "the program runs"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(data)
	for _, want := range []string{
		"parsecd_requests_total{code=\"200\"} 1",
		"parsecd_parses_total 1",
		"parsecd_batches_total 1",
		"parsecd_work_constraint_checks_total",
		"parsecd_work_maspar_cycles_total",
		"parsecd_parse_latency_seconds_bucket{le=\"+Inf\"} 1",
		"parsecd_queue_wait_seconds_count 1",
		"parsecd_batch_size_sum 1",
		"parsecd_grammar_cache_misses_total 1",
		"parsecd_result_cache_hits_total 0",
		"parsecd_result_cache_misses_total 1",
		"parsecd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, data)
	}
}

func TestGrammarsListsBuiltins(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/grammars")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"demo", "english", "ww", "dyck", "anbn", "chain", "crossserial"} {
		if !strings.Contains(string(data), fmt.Sprintf("%q", want)) {
			t.Errorf("grammar list missing %q:\n%s", want, data)
		}
	}
}

// TestGrammarsResponseByteStable pins the ordering invariant the
// maporder analyzer guards: the grammar inventory is assembled from a
// map-backed cache, so repeated GETs must serialize the same bytes —
// map iteration order must never leak into a response.
func TestGrammarsResponseByteStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Seed the cache with several inline grammars so the map has
	// multiple entries whose order could wobble.
	for _, label := range []string{"A1", "B2", "C3", "D4"} {
		src := fmt.Sprintf(`
(grammar
  (labels %[1]s)
  (categories c)
  (role r %[1]s)
  (word w c)
  (constraint "r" (if (eq (role x) r) (and (eq (lab x) %[1]s) (eq (mod x) nil)))))`, label)
		status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{
			GrammarSource: src,
			Backend:       "serial",
			Sentence:      []string{"w"},
		})
		if status != http.StatusOK {
			t.Fatalf("seeding cache with %s: status %d: %s", label, status, data)
		}
	}
	get := func() string {
		resp, err := http.Get(ts.URL + "/v1/grammars")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return string(data)
	}
	want := get()
	for i := 0; i < 5; i++ {
		if got := get(); got != want {
			t.Fatalf("GET %d differs:\n got: %s\nwant: %s", i+2, got, want)
		}
	}
}

// TestServersShareBuiltinGrammar: every server resolves a built-in name
// to the registry's one shared instance, so the process-global layout
// cache (keyed by grammar pointer) builds one layout per sentence length,
// however many servers parse it. No other test parses "chain" here, so
// the first of the five parses is the one miss.
func TestServersShareBuiltinGrammar(t *testing.T) {
	hits0, misses0 := core.LayoutCacheStats()
	for i := 0; i < 5; i++ {
		_, ts := newTestServer(t, Config{})
		status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Grammar: "chain", Backend: "maspar", Text: "w w w w"})
		if status != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, status, data)
		}
	}
	hits1, misses1 := core.LayoutCacheStats()
	if misses1-misses0 != 1 || hits1-hits0 != 4 {
		t.Fatalf("five servers parsing one length: layout cache +%d misses, +%d hits; want +1, +4",
			misses1-misses0, hits1-hits0)
	}
}
