package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// do is the claim/finish sequence serve runs for one entry, in one
// blocking call, with fn standing in for submitting a job and awaiting
// it: the tests below drive the cache's singleflight, panic and
// leader-failure rules through it.
func (rc *resultCache) do(ctx context.Context, key string, fn func() (ParseResult, int)) (ParseResult, int, rcOutcome) {
	resp, status, f, leads := rc.claim(key)
	switch {
	case f == nil:
		return resp, status, rcHit
	case !leads:
		resp, status, out := rc.wait(ctx, f)
		if out != rcMiss {
			return resp, status, out
		}
		resp, status = fn()
		rc.store(key, resp, status)
		return resp, status, rcMiss
	}
	defer func() {
		if r := recover(); r != nil {
			rc.abandon(key, f, r)
			panic(r)
		}
	}()
	resp, status = fn()
	rc.finish(key, f, resp, status)
	return resp, status, rcMiss
}

func okResult(tag string) ParseResult {
	return ParseResult{Sentence: []string{tag}, Accepted: true, HostTimeUS: 123, BatchSize: 7}
}

// TestResultCacheHitServesSanitizedCopy: a second identical request is
// answered from the memo — fn does not run again — and the stored value
// has its volatile fields zeroed and Cached set.
func TestResultCacheHitServesSanitizedCopy(t *testing.T) {
	rc := newResultCache(8, time.Minute)
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

// TestResultCacheTTLExpiry: entries past their TTL are not served; the
// next request re-executes and refreshes the entry. The clock is
// injected so no test sleeps.
func TestResultCacheTTLExpiry(t *testing.T) {
	rc := newResultCache(8, time.Minute)
	now := time.Unix(1000, 0)
	rc.now = func() time.Time { return now }
	calls := 0
	fn := func() (ParseResult, int) { calls++; return okResult("a"), http.StatusOK }

	rc.do(context.Background(), "k", fn)
	now = now.Add(59 * time.Second)
	if _, _, out := rc.do(context.Background(), "k", fn); out != rcHit {
		t.Fatalf("within TTL: outcome=%v, want hit", out)
	}
	now = now.Add(2 * time.Second) // 61s after insert
	if _, _, out := rc.do(context.Background(), "k", fn); out != rcMiss || calls != 2 {
		t.Fatalf("past TTL: outcome=%v calls=%d, want miss and re-execution", out, calls)
	}
	if st := rc.stats(); st.Expirations != 1 {
		t.Errorf("expirations=%d, want 1", st.Expirations)
	}
	// The refresh restarted the clock: servable again.
	now = now.Add(30 * time.Second)
	if _, _, out := rc.do(context.Background(), "k", fn); out != rcHit {
		t.Errorf("after refresh: outcome=%v, want hit", out)
	}
}

// TestResultCacheEvictsLRU: at capacity the least-recently-used entry
// is evicted, and touching an entry (a hit) protects it.
func TestResultCacheEvictsLRU(t *testing.T) {
	rc := newResultCache(2, time.Minute)
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
	rc := newResultCache(8, time.Minute)
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
	rc := newResultCache(8, time.Minute)
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
	rc := newResultCache(8, time.Minute)
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
	rc := newResultCache(8, time.Minute)
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

	get := func(nocache bool) ParseResult {
		r := req
		r.NoCache = nocache
		status, data := postJSON(t, ts.URL+"/v1/parse", r)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		return decodeResult(t, data)
	}
	first := get(false)
	cached := get(false)
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
	rc := newResultCache(8, time.Minute)
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
	rc := newResultCache(16, time.Minute)
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
