package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// do is the claim/finish sequence serve runs for one entry, in one
// blocking call, with fn standing in for submitting a job and awaiting
// it: the tests below drive the cache's singleflight, panic and
// leader-failure rules through it. A hit or a coalesced answer is the
// entry's stored bytes, decoded here.
func (rc *resultCache) do(ctx context.Context, key string, fn func() (ParseResult, int)) (ParseResult, int, rcOutcome) {
	body, f, leads := rc.claim(key)
	switch {
	case f == nil:
		return decodeStored(body), http.StatusOK, rcHit
	case !leads:
		body, out := rc.wait(ctx, f)
		switch out {
		case rcCoalesced:
			return decodeStored(body), http.StatusOK, out
		case rcExpiredWait:
			return ParseResult{}, http.StatusGatewayTimeout, out
		}
		resp, status := fn()
		rc.store(key, resp, status)
		return resp, status, rcMiss
	}
	defer func() {
		if r := recover(); r != nil {
			rc.abandon(key, f, r)
			panic(r)
		}
	}()
	resp, status := fn()
	rc.finish(key, f, resp, status)
	return resp, status, rcMiss
}

// decodeStored decodes an entry's stored bytes.
func decodeStored(body []byte) ParseResult {
	var r ParseResult
	if err := json.Unmarshal(body, &r); err != nil {
		panic(err)
	}
	return r
}

func okResult(tag string) ParseResult {
	return ParseResult{Sentence: []string{tag}, Accepted: true, HostTimeUS: 123, BatchSize: 7}
}

// TestResultCacheHitServesSanitizedCopy: a second identical request is
// answered from the memo — fn does not run again — and the stored value
// has its volatile fields zeroed and Cached set.
func TestResultCacheHitServesSanitizedCopy(t *testing.T) {
	rc := newResultCache(8)
	calls := 0
	fn := func() (ParseResult, int) { calls++; return okResult("a"), http.StatusOK }

	first, status, out := rc.do(context.Background(), "k", fn)
	if out != rcMiss || status != http.StatusOK || calls != 1 {
		t.Fatalf("first: outcome=%v status=%d calls=%d", out, status, calls)
	}
	// The leader's own response is NOT sanitized: it really parsed.
	if first.Cached || first.HostTimeUS == 0 {
		t.Errorf("leader response should carry its real timing: %+v", first)
	}

	second, status, out := rc.do(context.Background(), "k", fn)
	if out != rcHit || status != http.StatusOK || calls != 1 {
		t.Fatalf("second: outcome=%v status=%d calls=%d, want hit without rerun", out, status, calls)
	}
	if !second.Cached || second.HostTimeUS != 0 || second.QueueTimeUS != 0 || second.BatchSize != 0 {
		t.Errorf("cached response not sanitized: %+v", second)
	}
	st := rc.stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", st)
	}
}

// TestResultCacheEvictsLRU: at capacity the least-recently-used entry
// is evicted, and touching an entry (a hit) protects it.
func TestResultCacheEvictsLRU(t *testing.T) {
	rc := newResultCache(2)
	run := func(key string) rcOutcome {
		_, _, out := rc.do(context.Background(), key, func() (ParseResult, int) {
			return okResult(key), http.StatusOK
		})
		return out
	}
	run("a")
	run("b")
	run("a") // touch a: b is now LRU
	run("c") // evicts b
	if rc.Len() != 2 {
		t.Fatalf("len=%d, want 2", rc.Len())
	}
	if out := run("a"); out != rcHit {
		t.Errorf("a: outcome=%v, want hit (recently touched)", out)
	}
	if out := run("b"); out != rcMiss {
		t.Errorf("b: outcome=%v, want miss (evicted as LRU)", out)
	}
	if st := rc.stats(); st.Evictions == 0 {
		t.Errorf("no evictions recorded: %+v", st)
	}
}

// TestResultCacheSingleflight: N concurrent identical requests run one
// parse; the rest coalesce onto the leader's flight.
func TestResultCacheSingleflight(t *testing.T) {
	rc := newResultCache(8)
	const n = 16
	var calls atomic.Int32
	gate := make(chan struct{})
	fn := func() (ParseResult, int) {
		calls.Add(1)
		<-gate // hold the flight open until everyone is waiting
		return okResult("a"), http.StatusOK
	}
	var wg sync.WaitGroup
	outcomes := make([]rcOutcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, status, out := rc.do(context.Background(), "k", fn)
			if status != http.StatusOK {
				t.Errorf("goroutine %d: status %d", i, status)
			}
			outcomes[i] = out
		}(i)
	}
	// Wait until one leader has registered the flight, then let it and
	// any stragglers (who each become their own leader only if they saw
	// no flight — impossible here after the first registers) proceed.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no leader started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	var miss, coal, hit int
	for _, o := range outcomes {
		switch o {
		case rcMiss:
			miss++
		case rcCoalesced:
			coal++
		case rcHit:
			hit++
		}
	}
	// Exactly one parse ran; everyone else was served by its flight or
	// (if they arrived after completion) the memo.
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if miss != 1 || coal+hit != n-1 {
		t.Errorf("outcomes: miss=%d coalesced=%d hit=%d (n=%d)", miss, coal, hit, n)
	}
}

// TestResultCachePanicPropagates: a leader panic reaches the leader AND
// every waiter (identical requests see identical outcomes), the flight
// is cleared, and the cache still works afterwards.
func TestResultCachePanicPropagates(t *testing.T) {
	rc := newResultCache(8)
	gate := make(chan struct{})
	leaderPanic := func() (ParseResult, int) {
		<-gate
		panic("boom")
	}
	catch := func(fn func() (ParseResult, int)) (recovered any) {
		defer func() { recovered = recover() }()
		rc.do(context.Background(), "k", fn)
		return nil
	}

	waiterDone := make(chan any, 1)
	leaderDone := make(chan any, 1)
	go func() { leaderDone <- catch(leaderPanic) }()
	// Let the leader register its flight before the waiter looks.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rc.mu.Lock()
		inFlight := len(rc.flights) == 1
		rc.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered a flight")
		}
		time.Sleep(time.Millisecond)
	}
	go func() { waiterDone <- catch(leaderPanic) }()
	time.Sleep(10 * time.Millisecond) // let the waiter park on the flight
	close(gate)

	if r := <-leaderDone; r != "boom" {
		t.Errorf("leader recovered %v, want \"boom\"", r)
	}
	if r := <-waiterDone; r != "boom" {
		t.Errorf("waiter recovered %v, want \"boom\"", r)
	}
	// The flight is gone and nothing was stored: the next request runs.
	calls := 0
	_, _, out := rc.do(context.Background(), "k", func() (ParseResult, int) {
		calls++
		return okResult("ok"), http.StatusOK
	})
	if out != rcMiss || calls != 1 {
		t.Errorf("post-panic: outcome=%v calls=%d, want fresh miss", out, calls)
	}
}

// TestResultCacheLeaderFailureNotInherited: a waiter must not adopt the
// leader's non-200 (its 504 was specific to that request's deadline);
// it runs its own parse instead. Failures are never memoized.
func TestResultCacheLeaderFailureNotInherited(t *testing.T) {
	rc := newResultCache(8)
	gate := make(chan struct{})
	leader := func() (ParseResult, int) {
		<-gate
		return ParseResult{TimedOut: true}, http.StatusGatewayTimeout
	}
	started := make(chan struct{})
	go func() {
		close(started)
		rc.do(context.Background(), "k", leader)
	}()
	<-started
	deadline := time.Now().Add(2 * time.Second)
	for {
		rc.mu.Lock()
		inFlight := len(rc.flights) == 1
		rc.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered a flight")
		}
		time.Sleep(time.Millisecond)
	}

	waiterRan := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, status, out := rc.do(context.Background(), "k", func() (ParseResult, int) {
			waiterRan = true
			return okResult("own"), http.StatusOK
		})
		if out != rcMiss || status != http.StatusOK || !resp.Accepted {
			t.Errorf("waiter: outcome=%v status=%d resp=%+v", out, status, resp)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	<-done
	if !waiterRan {
		t.Error("waiter did not run its own parse after leader failure")
	}
	if rc.Len() != 1 {
		t.Errorf("len=%d, want 1 (only the waiter's 200 stored)", rc.Len())
	}
}

// TestResultCacheWaiterDeadline: a waiter whose context dies while the
// flight is open gets rcExpiredWait promptly, without waiting the
// flight out.
func TestResultCacheWaiterDeadline(t *testing.T) {
	rc := newResultCache(8)
	gate := make(chan struct{})
	defer close(gate)
	go rc.do(context.Background(), "k", func() (ParseResult, int) {
		<-gate
		return okResult("a"), http.StatusOK
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		rc.mu.Lock()
		inFlight := len(rc.flights) == 1
		rc.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered a flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, status, out := rc.do(ctx, "k", func() (ParseResult, int) {
		t.Error("expired waiter must not run a parse")
		return ParseResult{}, http.StatusInternalServerError
	})
	if out != rcExpiredWait || status != http.StatusGatewayTimeout {
		t.Errorf("outcome=%v status=%d, want rcExpiredWait/504", out, status)
	}
}

// TestCachedResultByteIdentical drives the full HTTP surface: the same
// request twice, then once with no_cache. The cached response must be
// byte-identical to the uncached ones on every field the parse
// determines — parses, counters, model time, acceptance — differing
// only in the volatile timing/batching fields and the cached marker.
func TestCachedResultByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := ParseRequest{Grammar: "english", Backend: "maspar", Text: "the dog saw the man with the telescope"}

	var raw []byte // the last response body, as sent
	get := func(nocache bool) ParseResult {
		r := req
		r.NoCache = nocache
		status, data := postJSON(t, ts.URL+"/v1/parse", r)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		raw = data
		return decodeResult(t, data)
	}
	first := get(false)
	cached := get(false)
	cachedRaw := raw
	bypass := get(true)

	if first.Cached || !cached.Cached || bypass.Cached {
		t.Fatalf("cached flags: first=%v second=%v no_cache=%v, want false/true/false",
			first.Cached, cached.Cached, bypass.Cached)
	}
	if cached.HostTimeUS != 0 || cached.QueueTimeUS != 0 || cached.BatchSize != 0 {
		t.Errorf("cached response carries volatile timing: %+v", cached)
	}
	canon := func(r ParseResult) string {
		b, err := json.Marshal(normalizeVolatile(r))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if canon(cached) != canon(first) {
		t.Errorf("cached differs from uncached:\n got: %s\nwant: %s", canon(cached), canon(first))
	}
	if canon(bypass) != canon(first) {
		t.Errorf("no_cache differs from uncached:\n got: %s\nwant: %s", canon(bypass), canon(first))
	}

	st := s.Stats()
	if st.ResultCacheHits != 1 {
		t.Errorf("result cache hits=%d, want exactly 1 (second request)", st.ResultCacheHits)
	}
	if st.ResultCacheMisses != 1 {
		t.Errorf("result cache misses=%d, want 1 (no_cache bypasses the counters entirely)", st.ResultCacheMisses)
	}
	// no_cache really re-parsed: three requests, two pool executions.
	if st.Parses != 2 {
		t.Errorf("pool parses=%d, want 2 (first + no_cache)", st.Parses)
	}
	// A hit's body is the stored encoding of the sanitized first result
	// and the newline json.Encoder ends a document with.
	stored, err := json.Marshal(sanitizeCached(first))
	if err != nil {
		t.Fatal(err)
	}
	if string(cachedRaw) != string(stored)+"\n" {
		t.Errorf("hit body is not the stored encoding:\n got: %q\nwant: %q", cachedRaw, string(stored)+"\n")
	}
}

// TestBatchBodyMatchesEncoder: a /v1/batch answer spliced from a hit's
// stored bytes, a leader, a duplicate coalesced onto it, a no_cache
// entry and a 400 entry is byte for byte what json.Encoder writes for
// the BatchResult it decodes to.
func TestBatchBodyMatchesEncoder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hit := ParseRequest{Grammar: "english", Backend: "serial", Text: "the dog slept"}
	if status, data := postJSON(t, ts.URL+"/v1/parse", hit); status != http.StatusOK {
		t.Fatalf("priming the hit: status %d: %s", status, data)
	}
	lead := ParseRequest{Grammar: "english", Backend: "serial", Text: "the man saw the dog"}
	bypass := hit
	bypass.NoCache = true
	bad := ParseRequest{Grammar: "english", Backend: "serial", Text: "the zebra slept"}
	status, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []ParseRequest{hit, lead, lead, bypass, bad}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var bres BatchResult
	if err := json.Unmarshal(data, &bres); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(bres); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("batch body is not json.Encoder's encoding:\n got: %s\nwant: %s", data, want.Bytes())
	}
	var cached []bool
	for _, r := range bres.Results {
		cached = append(cached, r.Cached)
	}
	if want := []bool{true, false, true, false, false}; !slices.Equal(cached, want) {
		t.Errorf("cached flags %v, want %v (hit, leader, coalesced follower, no_cache, 400)", cached, want)
	}
	if bres.Results[4].Error == "" {
		t.Errorf("unknown-word entry answered without an error: %+v", bres.Results[4])
	}
}

// TestResultCacheRacesHitsAndEvictions races hits, leaders, followers
// and evictions on a two-entry cache: eight goroutines over three
// keys, each checking that the bytes it is answered with are its own
// sentence's.
func TestResultCacheRacesHitsAndEvictions(t *testing.T) {
	s := New(Config{ResultCacheEntries: 2})
	t.Cleanup(s.pool.Close)
	h := s.Handler()
	texts := []string{"the dog slept", "a cat ran", "rex slept"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				text := texts[(g+i)%len(texts)]
				body, _ := json.Marshal(ParseRequest{Grammar: "english", Backend: "serial", Text: text}) //nolint:errcheck
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d %q: status %d: %s", g, text, rec.Code, rec.Body)
					return
				}
				var res ParseResult
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					t.Errorf("goroutine %d %q: %v", g, text, err)
					return
				}
				if got := strings.Join(res.Sentence, " "); got != text {
					t.Errorf("goroutine %d asked for %q, was answered for %q", g, text, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.ResultCacheEvictions == 0 || st.ResultCacheHits == 0 {
		t.Errorf("hits %d, evictions %d: the run must exercise both", st.ResultCacheHits, st.ResultCacheEvictions)
	}
}

// TestResultCacheKeyIncludesOptions: requests differing only in a
// result-shaping option must not share an entry.
func TestResultCacheKeyIncludesOptions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := ParseRequest{Grammar: "english", Backend: "maspar", Text: "the dog saw the man with the telescope"}

	do := func(mut func(*ParseRequest)) ParseResult {
		r := base
		if mut != nil {
			mut(&r)
		}
		status, data := postJSON(t, ts.URL+"/v1/parse", r)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		return decodeResult(t, data)
	}
	full := do(nil)
	capped := do(func(r *ParseRequest) { r.MaxParses = 1 })
	if capped.Cached {
		t.Fatalf("max_parses=1 wrongly served from the max_parses=default entry")
	}
	if len(capped.Parses) >= len(full.Parses) && full.NumParses > 1 {
		t.Errorf("max_parses=1 returned %d parses (default gave %d)", len(capped.Parses), len(full.Parses))
	}
	nofilter := do(func(r *ParseRequest) { r.NoFilter = true })
	if nofilter.Cached {
		t.Error("no_filter wrongly served from the filtered entry")
	}
	serial := do(func(r *ParseRequest) { r.Backend = "serial" })
	if serial.Cached {
		t.Error("serial wrongly served from the maspar entry")
	}
	if st := s.Stats(); st.ResultCacheMisses != 4 {
		t.Errorf("misses=%d, want 4 distinct entries", st.ResultCacheMisses)
	}
}

// TestResultCacheDisabled: ResultCacheEntries<0 turns the cache off;
// identical requests each parse.
func TestResultCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{ResultCacheEntries: -1})
	for i := 0; i < 2; i++ {
		status, data := postJSON(t, ts.URL+"/v1/parse", ParseRequest{Text: "the program runs"})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		if decodeResult(t, data).Cached {
			t.Fatal("cache disabled but response marked cached")
		}
	}
	st := s.Stats()
	if st.Parses != 2 || st.ResultCacheHits != 0 || st.ResultCacheMisses != 0 {
		t.Errorf("stats %+v, want 2 parses and zeroed cache counters", st)
	}
}

// TestResultCacheRefusedSubmitNotCached: 429/503 responses (queue full)
// must not be memoized — the next identical request tries again.
func TestResultCacheRefusedSubmitNotCached(t *testing.T) {
	rc := newResultCache(8)
	status429 := func() (ParseResult, int) {
		return ParseResult{Error: "queue full"}, http.StatusTooManyRequests
	}
	if _, status, _ := rc.do(context.Background(), "k", status429); status != http.StatusTooManyRequests {
		t.Fatalf("status %d", status)
	}
	if rc.Len() != 0 {
		t.Fatalf("non-200 stored: len=%d", rc.Len())
	}
	calls := 0
	_, status, out := rc.do(context.Background(), "k", func() (ParseResult, int) {
		calls++
		return okResult("a"), http.StatusOK
	})
	if out != rcMiss || status != http.StatusOK || calls != 1 {
		t.Errorf("retry: outcome=%v status=%d calls=%d", out, status, calls)
	}
}

// TestResultCacheManyKeysStayBounded: a scan of distinct keys never
// grows the cache past its capacity.
func TestResultCacheManyKeysStayBounded(t *testing.T) {
	rc := newResultCache(16)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		rc.do(context.Background(), key, func() (ParseResult, int) {
			return okResult(key), http.StatusOK
		})
	}
	if rc.Len() != 16 {
		t.Errorf("len=%d, want capacity 16", rc.Len())
	}
	if st := rc.stats(); st.Evictions != 200-16 {
		t.Errorf("evictions=%d, want %d", st.Evictions, 200-16)
	}
}

// TestCacheHeaderMarksStoredBytes: a /v1/parse answer carries
// X-Parsec-Cache: hit exactly when it is the result cache's stored
// bytes, so the first answer, a no_cache answer and an error carry no
// header, and a repeat does.
func TestCacheHeaderMarksStoredBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/parse", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get(CacheHeader)
	}
	const req = `{"backend":"serial","text":"the program runs"}`
	for _, tc := range []struct {
		name, body string
		status     int
		header     string
	}{
		{"first answer", req, http.StatusOK, ""},
		{"repeat", req, http.StatusOK, "hit"},
		{"no_cache", `{"backend":"serial","text":"the program runs","no_cache":true}`, http.StatusOK, ""},
		{"error", `{"backend":"serial","text":"the zebra runs"}`, http.StatusBadRequest, ""},
	} {
		if status, header := post(tc.body); status != tc.status || header != tc.header {
			t.Errorf("%s: status %d %s %q, want %d and %q", tc.name, status, CacheHeader, header, tc.status, tc.header)
		}
	}
}
