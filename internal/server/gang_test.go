package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/grammars"
)

// gangTestJob builds a resolved job bound to ctx with a buffered
// result channel, the shape a worker takes from its queue.
func gangTestJob(t *testing.T, g *cdg.Grammar, ctx context.Context, sentence string) *job {
	t.Helper()
	words := strings.Fields(sentence)
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &job{
		words:   words,
		sent:    sent,
		g:       g,
		gkey:    "english",
		backend: core.MasPar,
		cfgKey:  "english|maspar",
		ctx:     ctx,
		enq:     time.Now(),
		result:  make(chan jobResult, 1),
	}
}

// normalizeVolatile zeroes the fields that legitimately differ between
// runs (wall-clock measurements and batch shape), leaving everything
// the parse itself determines.
func normalizeVolatile(r ParseResult) ParseResult {
	r.HostTimeUS = 0
	r.QueueTimeUS = 0
	r.BatchSize = 0
	r.Cached = false
	return r
}

// TestGangMemberDeadlineDoesNotPoisonBatch is the gang-deadline
// regression test: when one member of a ganged batch has hit its
// deadline, it must be answered 504 while every other member still
// gets a 200 whose payload is identical to a solo parse of the same
// sentence — the gang is not torn down, re-run, or contaminated.
func TestGangMemberDeadlineDoesNotPoisonBatch(t *testing.T) {
	g := grammars.English()
	m := newServerMetrics()
	p := &Pool{m: m}
	parser := core.NewParser(g, core.WithBackend(core.MasPar))

	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel() // deadline hit "mid-gang": live when partitioned, dead at delivery

	live1 := gangTestJob(t, g, context.Background(), "the dog walked")
	dead := gangTestJob(t, g, expiredCtx, "fido took rex")
	live2 := gangTestJob(t, g, context.Background(), "rex caught fido")

	p.runGang(parser, []*job{live1, dead, live2}, 3)

	dr := <-dead.result
	if dr.status != http.StatusGatewayTimeout || !dr.resp.TimedOut {
		t.Fatalf("expired member: status=%d timedOut=%v, want 504/true", dr.status, dr.resp.TimedOut)
	}

	for _, j := range []*job{live1, live2} {
		jr := <-j.result
		if jr.status != http.StatusOK {
			t.Fatalf("live member %v: status=%d (err=%q), want 200", j.words, jr.status, jr.resp.Error)
		}
		// The live member's payload must be byte-identical to a solo
		// parse (modulo wall-clock fields).
		res, err := parser.ParseSentenceContext(context.Background(), j.sent)
		if err != nil {
			t.Fatal(err)
		}
		solo := NewResult(j.words, j.gkey, j.backend.String(), res, j.maxParses)
		got, _ := json.Marshal(normalizeVolatile(jr.resp))
		want, _ := json.Marshal(normalizeVolatile(solo))
		if string(got) != string(want) {
			t.Errorf("live member %v: ganged payload differs from solo\n got: %s\nwant: %s", j.words, got, want)
		}
	}

	if m.gangRuns.Load() != 1 || m.gangJobs.Load() != 3 {
		t.Errorf("gang metrics: runs=%d jobs=%d, want 1/3", m.gangRuns.Load(), m.gangJobs.Load())
	}
	if m.panics.Load() != 0 {
		t.Errorf("gang run recorded %d panics", m.panics.Load())
	}
}

// TestGangAllMembersExpired: a gang whose members have all hit their
// deadlines answers 504 everywhere and never wedges (the gang context
// cancels once every member is done, and the solo fallback classifies
// each job).
func TestGangAllMembersExpired(t *testing.T) {
	g := grammars.English()
	p := &Pool{m: newServerMetrics()}
	parser := core.NewParser(g, core.WithBackend(core.MasPar))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := gangTestJob(t, g, ctx, "the dog walked")
	b := gangTestJob(t, g, ctx, "fido took rex")

	p.runGang(parser, []*job{a, b}, 2)
	for _, j := range []*job{a, b} {
		jr := <-j.result
		if jr.status != http.StatusGatewayTimeout || !jr.resp.TimedOut {
			t.Fatalf("expired member %v: status=%d timedOut=%v, want 504/true", j.words, jr.status, jr.resp.TimedOut)
		}
	}
}

// TestGangPanicFallsBackToSolo: a panic inside the ganged run must not
// kill the worker; each member re-runs solo and still gets an answer.
func TestGangPanicFallsBackToSolo(t *testing.T) {
	g := grammars.English()
	m := newServerMetrics()
	p := &Pool{m: m}
	// A nil parser makes ParseGangContext panic before any parse; the
	// fallback then builds per-job results with the real parser — but
	// here we exercise the recover path end to end with a healthy
	// parser and a doctored gang: mixed sentence lengths make
	// ParseGangContext return an error, which takes the same fallback.
	parser := core.NewParser(g, core.WithBackend(core.MasPar))
	a := gangTestJob(t, g, context.Background(), "the dog walked")
	b := gangTestJob(t, g, context.Background(), "rex caught the ball")

	p.runGang(parser, []*job{a, b}, 2)
	for _, j := range []*job{a, b} {
		jr := <-j.result
		if jr.status != http.StatusOK {
			t.Fatalf("fallback member %v: status=%d (err=%q), want 200", j.words, jr.status, jr.resp.Error)
		}
	}
	if m.gangRuns.Load() != 0 {
		t.Errorf("failed gang must not count as a gang run")
	}
}

// TestWorkerGangsSameLengthJobs: end to end through the HTTP surface —
// a /v1/batch of same-length maspar sentences is served by ganged runs,
// visible on the gang counters, and every result matches its solo
// parse.
func TestWorkerGangsSameLengthJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 64, MaxBatch: 8,
	})

	breq := BatchRequest{}
	for _, text := range []string{"the dog walked", "fido took rex", "rex caught fido", "the cat slept"} {
		breq.Requests = append(breq.Requests, ParseRequest{
			Grammar: "english", Backend: "maspar", Text: text,
		})
	}
	status, data := postJSON(t, ts.URL+"/v1/batch", breq)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var out BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for _, r := range out.Results {
		if r.Error != "" {
			t.Errorf("sentence %v: error %q", r.Sentence, r.Error)
		}
	}
	st := s.Stats()
	if st.GangJobs < 2 {
		t.Errorf("expected ≥2 ganged jobs after a coalesced same-length batch, got runs=%d jobs=%d",
			st.GangRuns, st.GangJobs)
	}
}

// TestBatchRunsAsOneGang: a /v1/batch is one submitted unit, so with
// two workers and the result cache on, its 8 distinct uncached
// same-length maspar sentences still run as exactly one gang. The
// batch also carries a duplicate entry, which follows its twin's
// flight, and an entry already cached, which never reaches the pool.
func TestBatchRunsAsOneGang(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var texts []string
	for _, det := range []string{"the", "a", "every"} {
		for _, noun := range []string{"dog", "man", "cat"} {
			texts = append(texts, det+" "+noun+" walked")
		}
	}
	req := func(text string) ParseRequest {
		return ParseRequest{Grammar: "english", Backend: "maspar", Text: text}
	}
	cached := texts[8]
	if status, data := postJSON(t, ts.URL+"/v1/parse", req(cached)); status != http.StatusOK {
		t.Fatalf("priming %q: status %d: %s", cached, status, data)
	}
	before := s.Stats()

	var breq BatchRequest
	for _, text := range texts[:8] {
		breq.Requests = append(breq.Requests, req(text))
	}
	breq.Requests = append(breq.Requests, req(texts[3]), req(cached))
	status, data := postJSON(t, ts.URL+"/v1/batch", breq)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var out BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(breq.Requests) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(breq.Requests))
	}
	for i, r := range out.Results {
		if r.Error != "" || strings.Join(r.Sentence, " ") != breq.Requests[i].Text {
			t.Errorf("entry %d: sentence %v error %q", i, r.Sentence, r.Error)
		}
	}
	if !out.Results[9].Cached {
		t.Error("the primed entry was not served from the cache")
	}
	dup, _ := json.Marshal(normalizeVolatile(out.Results[8]))
	twin, _ := json.Marshal(normalizeVolatile(out.Results[3]))
	if string(dup) != string(twin) {
		t.Errorf("duplicate entry differs from its twin:\n got: %s\nwant: %s", dup, twin)
	}

	after := s.Stats()
	if runs, jobs := after.GangRuns-before.GangRuns, after.GangJobs-before.GangJobs; runs != 1 || jobs != 8 {
		t.Errorf("gang runs +%d, jobs +%d; want +1, +8", runs, jobs)
	}
}
