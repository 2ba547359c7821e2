package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/serial"
	"repro/internal/workload"
)

func latticeTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postLattice(t *testing.T, url string, req LatticeRequest) (int, LatticeResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/lattice", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res LatticeResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, res
}

// englishLatticeSlots is the shared test lattice: 8 candidate paths,
// 4 of which are grammatical (every noun/verb combination; "the
// chased" as object fails).
func englishLatticeSlots() [][]LatticeAlt {
	return [][]LatticeAlt{
		{{Word: "the", Score: 0.9}},
		{{Word: "dog", Score: 0.9}, {Word: "ball", Score: 0.4}},
		{{Word: "saw", Score: 0.7}, {Word: "walked", Score: 0.6}},
		{{Word: "the", Score: 0.9}},
		{{Word: "man", Score: 0.8}, {Word: "chased", Score: 0.3}},
	}
}

func TestLatticeEndpoint(t *testing.T) {
	_, ts := latticeTestServer(t, Config{})
	status, res := postLattice(t, ts.URL, LatticeRequest{
		Grammar:     "english",
		UtteranceID: "utt-1",
		Slots:       englishLatticeSlots(),
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, res)
	}
	if res.Grammar != "english" || res.UtteranceID != "utt-1" {
		t.Errorf("echo fields wrong: %+v", res)
	}
	if res.Slots != 5 || res.Paths != 8 || res.Expanded != 8 || res.Truncated {
		t.Errorf("expansion accounting: slots=%d paths=%d expanded=%d truncated=%v",
			res.Slots, res.Paths, res.Expanded, res.Truncated)
	}
	if res.Accepted != 4 || len(res.Hypotheses) != 8 {
		t.Fatalf("accepted=%d hyps=%d", res.Accepted, len(res.Hypotheses))
	}
	// Accepted hypotheses sort first, best score leading.
	best := res.Hypotheses[0]
	if !best.Accepted || strings.Join(best.Words, " ") != "the dog saw the man" {
		t.Errorf("best hypothesis: %+v", best)
	}
	if !res.Hypotheses[3].Accepted || res.Hypotheses[4].Accepted {
		t.Errorf("accepted-first ordering violated: %+v", res.Hypotheses)
	}
	if best.NumParses == 0 || len(best.Parses) == 0 {
		t.Errorf("best hypothesis has no rendered parses: %+v", best)
	}
	// Sibling candidates share prefixes within one request.
	if res.PrefixHits == 0 {
		t.Error("expected intra-lattice prefix reuse")
	}
}

func TestLatticeEndpointErrors(t *testing.T) {
	_, ts := latticeTestServer(t, Config{})
	for _, tc := range []struct {
		name   string
		req    LatticeRequest
		status int
	}{
		{"empty lattice", LatticeRequest{Grammar: "english"}, http.StatusBadRequest},
		{"empty slot", LatticeRequest{Grammar: "english", Slots: [][]LatticeAlt{{}}}, http.StatusBadRequest},
		{"missing word", LatticeRequest{Grammar: "english", Slots: [][]LatticeAlt{{{Score: 1}}}}, http.StatusBadRequest},
		{"unknown grammar", LatticeRequest{Grammar: "nope", Slots: [][]LatticeAlt{{{Word: "x"}}}}, http.StatusNotFound},
	} {
		status, res := postLattice(t, ts.URL, tc.req)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, status, tc.status, res)
		}
		if res.Error == "" {
			t.Errorf("%s: error field empty", tc.name)
		}
	}
	// GET is rejected.
	resp, err := http.Get(ts.URL + "/v1/lattice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", resp.StatusCode)
	}
}

// TestLatticeMatchesSerialOracle parses every hypothesis's path with
// serial.Parse, the reference engine, and checks the fields perfbench's
// oracle checks: accepted (the lattice rule: at least one parse was
// extracted), num_parses and the rendered parses, plus ambiguity. It
// decodes the shared test lattice with the default parse bound and with
// every parse rendered, an ambiguous lattice with every parse rendered,
// a lattice with an out-of-lexicon word, and the load tools' lattice
// body.
func TestLatticeMatchesSerialOracle(t *testing.T) {
	s, ts := latticeTestServer(t, Config{})
	g, _, err := s.cache.Get("english", "")
	if err != nil {
		t.Fatal(err)
	}
	body, err := EnglishLatticeBody(5, 3, 3, "oracle-", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var loadTools LatticeRequest
	if err := json.Unmarshal(body, &loadTools); err != nil {
		t.Fatal(err)
	}
	// Two prepositional phrases give both paths several attachments.
	var ambiguous [][]LatticeAlt
	for _, w := range workload.AmbiguousEnglish(2) {
		ambiguous = append(ambiguous, []LatticeAlt{{Word: w, Score: 0.9}})
	}
	ambiguous[4] = append(ambiguous[4], LatticeAlt{Word: "cat", Score: 0.5})
	mostParses := 0
	for _, tc := range []struct {
		name string
		req  LatticeRequest
	}{
		{"shared", LatticeRequest{Grammar: "english", Slots: englishLatticeSlots()}},
		{"shared/all-parses", LatticeRequest{Grammar: "english", Slots: englishLatticeSlots(), MaxParses: -1}},
		{"ambiguous/all-parses", LatticeRequest{Grammar: "english", Slots: ambiguous, MaxParses: -1}},
		{"unknown-word", LatticeRequest{Grammar: "english", Slots: unknownWordSlots()}},
		{"load-tools", loadTools},
	} {
		status, res := postLattice(t, ts.URL, tc.req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %+v", tc.name, status, res)
		}
		if res.Expanded == 0 || len(res.Hypotheses) != res.Expanded {
			t.Fatalf("%s: %d hypotheses for %d expanded paths", tc.name, len(res.Hypotheses), res.Expanded)
		}
		accepted := 0
		for _, h := range res.Hypotheses {
			path := strings.Join(h.Words, " ")
			if h.Accepted {
				accepted++
			}
			sent, err := cdg.Resolve(g, h.Words, nil)
			if err != nil {
				if h.Unknown == "" || h.Accepted || h.NumParses != 0 {
					t.Errorf("%s: %q does not resolve (%v) but got %+v", tc.name, path, err, h)
				}
				continue
			}
			ref, err := serial.Parse(g, sent, serial.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			parses := ref.Parses(latticeMaxParses(tc.req.MaxParses))
			mostParses = max(mostParses, len(parses))
			var rendered []string
			for _, a := range parses {
				rendered = append(rendered, cn.RenderPrecedenceGraph(a))
			}
			switch {
			case h.Accepted != (len(parses) > 0):
				t.Errorf("%s: %q accepted=%v, serial extracts %d parses", tc.name, path, h.Accepted, len(parses))
			case h.NumParses != len(parses):
				t.Errorf("%s: %q num_parses=%d, serial says %d", tc.name, path, h.NumParses, len(parses))
			case !reflect.DeepEqual(h.Parses, rendered):
				t.Errorf("%s: %q rendered parses differ from serial:\n%v\n%v", tc.name, path, h.Parses, rendered)
			case h.Ambiguous != ref.Ambiguous():
				t.Errorf("%s: %q ambiguous=%v, serial says %v", tc.name, path, h.Ambiguous, ref.Ambiguous())
			}
		}
		if res.Accepted != accepted {
			t.Errorf("%s: accepted=%d, %d hypotheses accepted", tc.name, res.Accepted, accepted)
		}
	}
	if mostParses < 2 {
		t.Errorf("no path has more than %d parses: the check of rendered parses needs an ambiguous one", mostParses)
	}
}

// TestLatticeIgnoresEngineAndBackend pins the decode of bodies that
// name "engine" or "backend": both are unknown fields, so such a body
// gets the same 200 hypothesis set as the same body without them.
func TestLatticeIgnoresEngineAndBackend(t *testing.T) {
	_, ts := latticeTestServer(t, Config{})
	slots, err := json.Marshal(englishLatticeSlots())
	if err != nil {
		t.Fatal(err)
	}
	post := func(extra string) LatticeResult {
		t.Helper()
		body := `{"grammar":"english",` + extra + `"slots":` + string(slots) + `}`
		resp, err := http.Post(ts.URL+"/v1/lattice", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res LatticeResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %+v", body, resp.StatusCode, res)
		}
		return res
	}
	want := verdictsOf(post("").Hypotheses)
	for _, extra := range []string{`"engine":"pool",`, `"backend":"serial",`, `"engine":"pool","backend":"abacus",`} {
		if got := verdictsOf(post(extra).Hypotheses); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hypotheses differ from the plain body:\n%+v\n%+v", extra, got, want)
		}
	}
}

func TestLatticePathBudgetCaps(t *testing.T) {
	_, ts := latticeTestServer(t, Config{LatticeMaxPaths: 4})
	status, res := postLattice(t, ts.URL, LatticeRequest{
		Grammar: "english",
		Slots:   englishLatticeSlots(),
		// Request more than the server allows: the cap wins.
		MaxPaths: 1000,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if res.Expanded != 4 || !res.Truncated || res.Paths != 8 {
		t.Errorf("budget: expanded=%d truncated=%v paths=%d", res.Expanded, res.Truncated, res.Paths)
	}
}

func TestLatticeMetricsExposed(t *testing.T) {
	s, ts := latticeTestServer(t, Config{})
	if _, res := postLattice(t, ts.URL, LatticeRequest{Grammar: "english", Slots: englishLatticeSlots()}); res.Error != "" {
		t.Fatalf("decode failed: %s", res.Error)
	}
	st := s.Stats()
	if st.LatticeRequests != 1 || st.LatticePathsExpanded != 8 {
		t.Errorf("stats: requests=%d paths=%d", st.LatticeRequests, st.LatticePathsExpanded)
	}
	if st.LatticePrefixHits == 0 || st.LatticePrefixMisses == 0 {
		t.Errorf("stats: prefix hits=%d misses=%d", st.LatticePrefixHits, st.LatticePrefixMisses)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"parsecd_lattice_requests_total 1",
		"parsecd_lattice_paths_expanded_total 8",
		"parsecd_lattice_prefix_cache_hits_total",
		"parsecd_lattice_prefix_cache_misses_total",
		"parsecd_lattice_stream_slots_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// streamLattice drives the NDJSON endpoint: the header goes first, then
// each slot as its own line (full duplex: updates are read as slots are
// written), and returns every update in order.
func streamLattice(t *testing.T, url string, header LatticeRequest, slots [][]LatticeAlt) []LatticeStreamUpdate {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/lattice/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// RoundTrip blocks until response headers, which the server only
	// sends after reading the request's header line — so the round trip
	// runs on its own goroutine while this one feeds the pipe.
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	send := func(v any) {
		t.Helper()
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	send(header)

	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	readUpdate := func() LatticeStreamUpdate {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var u LatticeStreamUpdate
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad update line %q: %v", sc.Text(), err)
		}
		return u
	}

	var updates []LatticeStreamUpdate
	// When the header carried slots the server decodes them immediately.
	if len(header.Slots) > 0 {
		u := readUpdate()
		if u.Error != "" {
			t.Fatalf("header update error: %s", u.Error)
		}
		updates = append(updates, u)
	}
	for i, slot := range slots {
		send(LatticeStreamSlot{Alts: slot})
		u := readUpdate()
		if u.Error != "" {
			t.Fatalf("slot %d: update error: %s", i, u.Error)
		}
		if u.Slot != i+1 {
			t.Fatalf("slot %d: update for slot %d", i, u.Slot)
		}
		updates = append(updates, u)
	}
	pw.Close() // end of utterance
	final := readUpdate()
	updates = append(updates, final)
	if sc.Scan() {
		t.Fatalf("unexpected line after final update: %s", sc.Text())
	}
	return updates
}

// hypothesisVerdicts projects the fields both endpoints must agree on —
// work accounting (counters, reuse) legitimately differs between a
// cold batch decode and the warm final update of a stream.
type hypothesisVerdict struct {
	Words     string
	Score     float64
	Accepted  bool
	Ambiguous bool
	NumParses int
	Parses    string
	Unknown   string
}

func verdictsOf(hyps []LatticeHypothesis) []hypothesisVerdict {
	out := make([]hypothesisVerdict, len(hyps))
	for i, h := range hyps {
		out[i] = hypothesisVerdict{
			Words:     strings.Join(h.Words, " "),
			Score:     h.Score,
			Accepted:  h.Accepted,
			Ambiguous: h.Ambiguous,
			NumParses: h.NumParses,
			Parses:    strings.Join(h.Parses, "\n---\n"),
			Unknown:   h.Unknown,
		}
	}
	return out
}

// TestLatticeStreamMatchesBatch is the tier-1 equivalence pin: feeding
// the lattice slot by slot over the stream must end on exactly the
// hypothesis set the batch endpoint computes for the whole lattice.
func TestLatticeStreamMatchesBatch(t *testing.T) {
	_, ts := latticeTestServer(t, Config{})
	slots := englishLatticeSlots()

	updates := streamLattice(t, ts.URL, LatticeRequest{Grammar: "english", UtteranceID: "utt-stream"}, slots)
	if len(updates) != len(slots)+1 {
		t.Fatalf("got %d updates, want %d", len(updates), len(slots)+1)
	}
	final := updates[len(updates)-1]
	if !final.Final || final.Result == nil {
		t.Fatalf("last update not final: %+v", final)
	}
	// Each intermediate update decodes the growing prefix lattice.
	for i, u := range updates[:len(slots)] {
		if u.Final || u.Result == nil || u.Result.Slots != i+1 {
			t.Errorf("update %d malformed: %+v", i, u)
		}
	}
	// Updates after the first must reuse the previous update's
	// snapshots: that is the point of the subsystem.
	if updates[1].Result.PrefixHits == 0 {
		t.Errorf("second update shows no prefix reuse: %+v", updates[1].Result)
	}

	_, batch := postLattice(t, ts.URL, LatticeRequest{Grammar: "english", Slots: slots})
	if batch.Error != "" {
		t.Fatalf("batch decode failed: %s", batch.Error)
	}
	got, want := verdictsOf(final.Result.Hypotheses), verdictsOf(batch.Hypotheses)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("final stream hypotheses differ from batch:\nstream: %+v\nbatch:  %+v", got, want)
	}
	if final.Result.Accepted != batch.Accepted || final.Result.Expanded != batch.Expanded {
		t.Errorf("aggregates differ: stream accepted=%d expanded=%d, batch %d/%d",
			final.Result.Accepted, final.Result.Expanded, batch.Accepted, batch.Expanded)
	}
}

func TestLatticeStreamHeaderSlots(t *testing.T) {
	// Slots carried in the header are decoded immediately; the stream
	// then extends them.
	s, ts := latticeTestServer(t, Config{})
	slots := englishLatticeSlots()
	header := LatticeRequest{Grammar: "english", Slots: slots[:2]}
	updates := streamLattice(t, ts.URL, header, nil)
	// One update for the header slots plus the final repeat.
	if len(updates) != 2 {
		t.Fatalf("got %d updates, want 2", len(updates))
	}
	if updates[0].Final || updates[0].Result == nil || updates[0].Result.Slots != 2 {
		t.Fatalf("header update malformed: %+v", updates[0])
	}
	if !updates[1].Final || updates[1].Result == nil || updates[1].Result.Slots != 2 {
		t.Fatalf("final update malformed: %+v", updates[1])
	}
	if n := s.Stats().LatticeSlotsStreamed; n != 2 {
		t.Errorf("slots streamed = %d, want 2", n)
	}
}

func TestLatticeStreamErrors(t *testing.T) {
	_, ts := latticeTestServer(t, Config{})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/lattice/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	if st, _ := post(""); st != http.StatusBadRequest {
		t.Errorf("empty stream: status %d", st)
	}
	if st, _ := post("{not json}\n"); st != http.StatusBadRequest {
		t.Errorf("bad header: status %d", st)
	}
	if st, _ := post(`{"grammar":"nope"}` + "\n"); st != http.StatusNotFound {
		t.Errorf("unknown grammar: status %d", st)
	}
	// Errors after streaming starts arrive as update lines on a 200.
	st, body := post(`{"grammar":"english"}` + "\n" + `{"alts":[]}` + "\n")
	if st != http.StatusOK {
		t.Fatalf("empty slot line: status %d", st)
	}
	var u LatticeStreamUpdate
	if err := json.Unmarshal([]byte(strings.SplitN(body, "\n", 2)[0]), &u); err != nil || u.Error == "" {
		t.Errorf("expected error update, got %q (%v)", body, err)
	}
	// An alternative without a word is rejected as /v1/lattice rejects
	// it, whether it comes in a header slot or on a slot line, and no
	// hypothesis containing it is ever decoded.
	for _, tc := range []struct{ name, body string }{
		{"header slot", `{"grammar":"english","slots":[[{"word":"the"}],[{"word":""},{"word":"dog"}]]}` + "\n"},
		{"slot line", `{"grammar":"english"}` + "\n" + `{"alts":[{"word":"the"}]}` + "\n" + `{"alts":[{"word":""},{"word":"dog"}]}` + "\n"},
	} {
		st, body := post(tc.body)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, st)
		}
		lines := strings.Split(strings.TrimSpace(body), "\n")
		for _, line := range lines {
			var u LatticeStreamUpdate
			if err := json.Unmarshal([]byte(line), &u); err != nil {
				t.Fatalf("%s: bad update line %q: %v", tc.name, line, err)
			}
			if u.Result == nil {
				continue
			}
			for _, h := range u.Result.Hypotheses {
				if slices.Contains(h.Words, "") {
					t.Errorf("%s: decoded a hypothesis with an empty word: %q", tc.name, h.Words)
				}
			}
		}
		var last LatticeStreamUpdate
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !strings.Contains(last.Error, `needs a "word"`) {
			t.Errorf("%s: want a closing error update naming the missing word, got %q", tc.name, body)
		}
	}
}

func TestLatticeAffinityKeyShape(t *testing.T) {
	withID := LatticeRequest{Grammar: "english", UtteranceID: "u7", Slots: englishLatticeSlots()}
	if got := LatticeAffinityKey(withID); got != "lattice|english|uid|u7" {
		t.Errorf("utterance key: %q", got)
	}
	// Anonymous requests key on slot contents: stable across calls,
	// sensitive to any slot change.
	anon := LatticeRequest{Grammar: "english", Slots: englishLatticeSlots()}
	k1, k2 := LatticeAffinityKey(anon), LatticeAffinityKey(anon)
	if k1 != k2 {
		t.Errorf("anonymous key not deterministic: %q vs %q", k1, k2)
	}
	changed := LatticeRequest{Grammar: "english", Slots: englishLatticeSlots()}
	changed.Slots[1][0].Score = 0.123
	if LatticeAffinityKey(changed) == k1 {
		t.Error("score change did not change the anonymous key")
	}
	// Inline grammar sources hash like ParseRequest's grammar key.
	src := LatticeRequest{GrammarSource: "(grammar)", UtteranceID: "u1"}
	if !strings.Contains(LatticeAffinityKey(src), "|uid|u1") {
		t.Errorf("source key: %q", LatticeAffinityKey(src))
	}
}

func TestLatticeAdmission429(t *testing.T) {
	// QueueDepth 1 with the gate held: the second waiter is rejected.
	s, ts := latticeTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.latticeGate <- struct{}{} // occupy the only slot
	defer func() { <-s.latticeGate }()
	s.latticeQueued.Add(1) // one waiter already queued
	defer s.latticeQueued.Add(-1)
	status, res := postLattice(t, ts.URL, LatticeRequest{Grammar: "english", Slots: englishLatticeSlots()})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d: %+v", status, res)
	}
	if s.Stats().Rejected == 0 {
		t.Error("rejection not counted")
	}
}

func TestLatticeTimeout504(t *testing.T) {
	s, ts := latticeTestServer(t, Config{Workers: 1, QueueDepth: 8})
	s.latticeGate <- struct{}{} // never released: requests wait then expire
	defer func() { <-s.latticeGate }()
	status, res := postLattice(t, ts.URL, LatticeRequest{
		Grammar:   "english",
		Slots:     englishLatticeSlots(),
		TimeoutMS: 30,
	})
	if status != http.StatusGatewayTimeout || !res.TimedOut {
		t.Fatalf("status %d timedout=%v: %+v", status, res.TimedOut, res)
	}
}

// unknownWordSlots is a lattice with one out-of-lexicon alternative:
// of its two paths only "the dog walked" parses.
func unknownWordSlots() [][]LatticeAlt {
	return [][]LatticeAlt{
		{{Word: "the", Score: 0.5}, {Word: "zzz", Score: 0.9}},
		{{Word: "dog", Score: 0.9}},
		{{Word: "walked", Score: 0.9}},
	}
}

func TestLatticeUnknownWordHypothesis(t *testing.T) {
	_, ts := latticeTestServer(t, Config{})
	status, res := postLattice(t, ts.URL, LatticeRequest{Grammar: "english", Slots: unknownWordSlots()})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var sawUnknown bool
	for _, h := range res.Hypotheses {
		if h.Unknown == "zzz" && !h.Accepted {
			sawUnknown = true
		}
	}
	if !sawUnknown || res.Accepted != 1 {
		t.Errorf("unknown-word handling: %+v", res)
	}
}

func TestLatticeDeterministicTieBreak(t *testing.T) {
	// Equal scores everywhere: ordering must still be fully pinned
	// (accepted first, then lexicographic word sequence).
	_, ts := latticeTestServer(t, Config{})
	req := LatticeRequest{
		Grammar: "english",
		Slots: [][]LatticeAlt{
			{{Word: "the", Score: 0.5}},
			{{Word: "dog", Score: 0.5}, {Word: "ball", Score: 0.5}},
			{{Word: "walked", Score: 0.5}},
		},
	}
	var first []string
	for i := 0; i < 3; i++ {
		_, res := postLattice(t, ts.URL, req)
		var order []string
		for _, h := range res.Hypotheses {
			order = append(order, fmt.Sprintf("%v/%v", h.Words, h.Accepted))
		}
		if i == 0 {
			first = order
			if len(res.Hypotheses) != 2 || !res.Hypotheses[0].Accepted {
				t.Fatalf("unexpected hypothesis set: %+v", res.Hypotheses)
			}
			// "the ball walked" and "the dog walked" are both accepted;
			// ball < dog lexicographically.
			if strings.Join(res.Hypotheses[0].Words, " ") != "the ball walked" {
				t.Errorf("tie-break order: %+v", res.Hypotheses)
			}
			continue
		}
		if !reflect.DeepEqual(order, first) {
			t.Errorf("run %d ordering differs: %v vs %v", i, order, first)
		}
	}
}

// TestEnglishLatticeBodyPinned pins the load tools' lattice request for
// a fixed utterance, byte for byte, as each caller sends it: the fleet
// benchmark's lattice mix (5 slots × 3 alts, "bench-utt-", no timeout,
// cache on) and parsecload's -lattice mode (here with a timeout and
// no_cache). Utterance 3 rotates the confusions, so the slot words,
// their order and the n-best scores are all pinned.
func TestEnglishLatticeBodyPinned(t *testing.T) {
	const slots = `"slots":[` +
		`[{"word":"the","score":0.9},{"word":"a","score":0.75},{"word":"every","score":0.6000000000000001}],` +
		`[{"word":"big","score":0.9},{"word":"red","score":0.75},{"word":"old","score":0.6000000000000001}],` +
		`[{"word":"old","score":0.9},{"word":"big","score":0.75},{"word":"red","score":0.6000000000000001}],` +
		`[{"word":"dog","score":0.9},{"word":"man","score":0.75},{"word":"cat","score":0.6000000000000001}],` +
		`[{"word":"walked","score":0.9},{"word":"saw","score":0.75},{"word":"ball","score":0.6000000000000001}]]`
	for _, tc := range []struct {
		prefix    string
		timeoutMS int
		noCache   bool
		want      string
	}{
		{"bench-utt-", 0, false, `{"grammar":"english","utterance_id":"bench-utt-3",` + slots + `,"max_parses":1}`},
		{"load-utt-", 500, true, `{"grammar":"english","utterance_id":"load-utt-3",` + slots + `,"max_parses":1,"timeout_ms":500,"no_cache":true}`},
	} {
		body, err := EnglishLatticeBody(5, 3, 3, tc.prefix, tc.timeoutMS, tc.noCache)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != tc.want {
			t.Errorf("EnglishLatticeBody(5, 3, 3, %q, %d, %v) =\n%s\nwant\n%s", tc.prefix, tc.timeoutMS, tc.noCache, body, tc.want)
		}
	}
}
