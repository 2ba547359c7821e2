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

// gangTestJob builds a resolved MasPar job bound to ctx with a
// buffered result channel, the shape a worker takes from its queue.
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

// TestBatchExpiredJobAnswers504Alone: when one job of a taken batch has
// hit its deadline, it answers 504 while every other job still gets a
// 200 whose payload is identical to a solo parse of the same sentence.
func TestBatchExpiredJobAnswers504Alone(t *testing.T) {
	g := grammars.English()
	m := newServerMetrics()
	p := &Pool{m: m}

	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()

	live1 := gangTestJob(t, g, context.Background(), "the dog walked")
	dead := gangTestJob(t, g, expiredCtx, "fido took rex")
	live2 := gangTestJob(t, g, context.Background(), "rex caught fido")

	p.run([]*job{live1, dead, live2})

	dr := <-dead.result
	if dr.status != http.StatusGatewayTimeout || !dr.resp.TimedOut {
		t.Fatalf("expired job: status=%d timedOut=%v, want 504/true", dr.status, dr.resp.TimedOut)
	}

	parser := core.NewParser(g, core.WithBackend(core.MasPar))
	for _, j := range []*job{live1, live2} {
		jr := <-j.result
		if jr.status != http.StatusOK {
			t.Fatalf("live job %v: status=%d (err=%q), want 200", j.words, jr.status, jr.resp.Error)
		}
		// The live job's payload must be byte-identical to a solo
		// parse (modulo wall-clock fields).
		res, err := parser.ParseSentenceContext(context.Background(), j.sent)
		if err != nil {
			t.Fatal(err)
		}
		solo := NewResult(j.words, j.gkey, j.backend.String(), res, j.maxParses)
		got, _ := json.Marshal(normalizeVolatile(jr.resp))
		want, _ := json.Marshal(normalizeVolatile(solo))
		if string(got) != string(want) {
			t.Errorf("live job %v: batched payload differs from solo\n got: %s\nwant: %s", j.words, got, want)
		}
	}

	if parses, panics := m.parses.Load(), m.panics.Load(); parses != 2 || panics != 0 {
		t.Errorf("parses=%d panics=%d, want 2 and 0: the expired job must not parse", parses, panics)
	}
}

// TestBatchAllJobsExpired: a batch whose jobs have all hit their
// deadlines answers 504 everywhere and never wedges.
func TestBatchAllJobsExpired(t *testing.T) {
	g := grammars.English()
	p := &Pool{m: newServerMetrics()}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := gangTestJob(t, g, ctx, "the dog walked")
	b := gangTestJob(t, g, ctx, "fido took rex")

	p.run([]*job{a, b})
	for _, j := range []*job{a, b} {
		jr := <-j.result
		if jr.status != http.StatusGatewayTimeout || !jr.resp.TimedOut {
			t.Fatalf("expired job %v: status=%d timedOut=%v, want 504/true", j.words, jr.status, jr.resp.TimedOut)
		}
	}
}

// TestBatchPanicAnswers500ForItsJobOnly: a parse that panics answers 500
// for its own job; the worker recovers and the next job of its batch
// still gets its 200.
func TestBatchPanicAnswers500ForItsJobOnly(t *testing.T) {
	g := grammars.English()
	m := newServerMetrics()
	p := &Pool{m: m}
	poisoned := gangTestJob(t, g, context.Background(), "the dog walked")
	poisoned.sent = nil // the MasPar run dereferences it
	healthy := gangTestJob(t, g, context.Background(), "fido took rex")

	p.run([]*job{poisoned, healthy})
	if jr := <-poisoned.result; jr.status != http.StatusInternalServerError || !strings.Contains(jr.resp.Error, "panic") {
		t.Errorf("poisoned job: status=%d err=%q, want 500 and a panic message", jr.status, jr.resp.Error)
	}
	if jr := <-healthy.result; jr.status != http.StatusOK {
		t.Errorf("healthy job: status=%d (err=%q), want 200", jr.status, jr.resp.Error)
	}
	if m.panics.Load() != 1 {
		t.Errorf("panics=%d, want 1", m.panics.Load())
	}
}

// TestBatchOfSameLengthJobsIsOneTake: a /v1/batch is one submitted unit,
// so with two workers and the result cache on, its 8 distinct uncached
// same-length maspar sentences are taken by one worker at once: one
// more parsecd_batches_total and one parsecd_batch_size sample of 8.
// The batch also carries a duplicate entry, which follows its twin's
// flight, and an entry already cached, which never reaches the pool.
func TestBatchOfSameLengthJobsIsOneTake(t *testing.T) {
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
	_, _, sum0, count0 := s.m.batchSize.Snapshot()
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
	_, _, sum1, count1 := s.m.batchSize.Snapshot()
	if batches := after.Batches - before.Batches; batches != 1 || count1-count0 != 1 || sum1-sum0 != 8 {
		t.Errorf("batches +%d, batch_size samples +%d summing to %v; want +1, one sample of 8", batches, count1-count0, sum1-sum0)
	}
}

// TestTakeGroupsByConfigAndLength: a MasPar worker takes the head with
// the queued jobs of its cfgKey and sentence length only, in queue
// order; jobs of another length or configuration stay queued, in order,
// for the next free worker.
func TestTakeGroupsByConfigAndLength(t *testing.T) {
	g := grammars.English()
	ctx := context.Background()
	a := gangTestJob(t, g, ctx, "the dog walked")
	b := gangTestJob(t, g, ctx, "rex caught the ball")
	c := gangTestJob(t, g, ctx, "fido took rex")
	d := gangTestJob(t, g, ctx, "the man saw rex")
	e := gangTestJob(t, g, ctx, "rex caught fido")
	e.cfgKey = "english|maspar|nofilter"
	f := gangTestJob(t, g, ctx, "the cat slept")
	q := &backendQueue{backend: core.MasPar, jobs: []*job{a, b, c, d, e, f}}
	for _, want := range [][]*job{{a, c, f}, {b, d}, {e}, nil} {
		got := q.take(8)
		if len(got) != len(want) {
			t.Fatalf("took %d jobs, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("job %d of the batch is %v, want %v", i, got[i].words, want[i].words)
			}
		}
	}
	q.jobs = []*job{a, c, f}
	if got := q.take(2); len(got) != 2 || got[0] != a || got[1] != c || len(q.jobs) != 1 || q.jobs[0] != f {
		t.Errorf("take(2) took %d jobs and left %d; want a and c taken, f queued", len(got), len(q.jobs))
	}
}
