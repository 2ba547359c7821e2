package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// Admission-control tests, driven deterministically: stalls come from
// ForceDelay, and every wait is a busy-wait on an observable counter,
// never a sleep.

// waitUntil busy-waits (yielding, never sleeping) until cond holds,
// bounded by a generous wall-clock deadline so a broken condition
// fails the test instead of hanging it.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// postClass posts one parse through the router with an explicit
// admission class and returns the status, Retry-After header, and
// decoded result.
func postClass(t testing.TB, c *Cluster, req server.ParseRequest, class string) (int, string, server.ParseResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.URL+"/v1/parse", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if class != "" {
		hreq.Header.Set(server.ClassHeader, class)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("parse via router: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res server.ParseResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), res
}

// TestAdmissionShedsBulkBeforeInteractive fills a single shard's
// in-flight cap with stalled requests and checks class priority: bulk
// sheds at 3/4 of the cap while interactive still admits, interactive
// sheds at the cap, the 429s carry Retry-After, batch sub-requests
// surface sheds as per-request errors, and the in-flight high-water
// mark never exceeds the cap.
func TestAdmissionShedsBulkBeforeInteractive(t *testing.T) {
	c := New(t, 1, server.Config{}, router.Config{MaxInflight: 2})
	sh := c.Shards[0]
	sh.ForceDelay(time.Hour)
	defer sh.ForceDelay(0)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	occupy := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(serialReq(workload.DemoSentence(2)))
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+"/v1/parse", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}

	occupy()
	waitUntil(t, "first forward in flight", func() bool { return sh.DelayHits() >= 1 })

	// Occupancy 1 of 2: bulk (cap 1) sheds, interactive still admits.
	status, retryAfter, _ := postClass(t, c, serialReq(workload.DemoSentence(3)), "bulk")
	if status != http.StatusTooManyRequests {
		t.Fatalf("bulk at occupancy 1: status %d, want 429", status)
	}
	if retryAfter != "1" {
		t.Errorf("shed 429 Retry-After = %q, want \"1\"", retryAfter)
	}
	occupy()
	waitUntil(t, "second forward in flight", func() bool { return sh.DelayHits() >= 2 })

	// Occupancy 2 of 2: interactive sheds too.
	status, _, _ = postClass(t, c, serialReq(workload.DemoSentence(3)), "interactive")
	if status != http.StatusTooManyRequests {
		t.Fatalf("interactive at occupancy 2: status %d, want 429", status)
	}

	// A batch defaults to bulk and surfaces the shed per request (the
	// batch schema has no per-result status).
	bbody, _ := json.Marshal(server.BatchRequest{Requests: []server.ParseRequest{serialReq(workload.DemoSentence(2))}})
	resp, err := http.Post(c.URL+"/v1/batch", "application/json", bytes.NewReader(bbody))
	if err != nil {
		t.Fatal(err)
	}
	var bres server.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&bres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(bres.Results) != 1 {
		t.Fatalf("shed batch: status %d results %d", resp.StatusCode, len(bres.Results))
	}
	if !strings.Contains(bres.Results[0].Error, "capacity") {
		t.Errorf("shed batch result error = %q, want a capacity refusal", bres.Results[0].Error)
	}

	st := c.Router.Stats()
	if st.ShedsBulk != 2 {
		t.Errorf("bulk sheds = %d, want 2 (one parse, one batch)", st.ShedsBulk)
	}
	if st.ShedsInteractive != 1 {
		t.Errorf("interactive sheds = %d, want 1", st.ShedsInteractive)
	}
	if high := st.InflightHigh[sh.URL]; high != 2 {
		t.Errorf("in-flight high-water = %d, want exactly the cap (2)", high)
	}
	if cur := st.Inflight[sh.URL]; cur != 2 {
		t.Errorf("in-flight now = %d, want 2 stalled occupants", cur)
	}
}

// TestRetryAfterPropagatesFromShard forces a shard-side 429 (which the
// harness decorates with Retry-After, like the real server) and checks
// the hint survives the router hop.
func TestRetryAfterPropagatesFromShard(t *testing.T) {
	c := New(t, 1, server.Config{}, router.Config{})
	c.Shards[0].ForceStatus(http.StatusTooManyRequests)
	defer c.Shards[0].ForceStatus(0)
	body, _ := json.Marshal(serialReq(workload.DemoSentence(2)))
	resp, err := http.Post(c.URL+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the shard's 429 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the shard's own hint \"7\"", got)
	}
}
