package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grammars"
)

// TestBatchAnswersLikeSerial sends one /v1/batch through a 2-worker
// server with the result cache on and holds every entry's verdict to
// the serial engine's: accepted, ambiguous, num_parses and the rendered
// parses. The batch mixes MasPar sentences of 3 to 6 words, a sentence
// repeated through the cache and with no_cache, a max_parses variant, a
// 32-PE variant (many virtual layers) and one serial entry, so the
// pool takes several MasPar batches of different lengths and
// configurations while the cache coalesces the repeats.
func TestBatchAnswersLikeSerial(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	maspar := func(text string) ParseRequest {
		return ParseRequest{Grammar: "english", Backend: "maspar", Text: text}
	}
	var breq BatchRequest
	for _, text := range []string{
		"the dog walked",
		"fido took rex",
		"rex caught the ball",
		"walked the dog rex", // rejected
		"the dog saw the man",
		"fido took the red ball",
		"rex saw the man with fido", // ambiguous
		"the dog saw the old man",
	} {
		breq.Requests = append(breq.Requests, maspar(text))
	}
	repeat := maspar("fido took rex")
	uncached := repeat
	uncached.NoCache = true
	oneParse := maspar("rex saw the man with fido")
	oneParse.MaxParses = 1
	small := maspar("the dog saw the man")
	small.PEs = 32
	serial := maspar("rex caught fido")
	serial.Backend = "serial"
	breq.Requests = append(breq.Requests, repeat, uncached, repeat, oneParse, small, serial)

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
	ref := core.NewParser(grammars.English(), core.WithBackend(core.Serial))
	for i, req := range breq.Requests {
		got := out.Results[i]
		if got.Error != "" || got.TimedOut {
			t.Errorf("entry %d %q: error %q, timed out %v", i, req.Text, got.Error, got.TimedOut)
			continue
		}
		res, err := ref.Parse(req.Words())
		if err != nil {
			t.Fatal(err)
		}
		want := NewResult(req.Words(), "english", "serial", res, req.MaxParses)
		if got.Accepted != want.Accepted || got.Ambiguous != want.Ambiguous ||
			got.NumParses != want.NumParses || !slices.Equal(got.Parses, want.Parses) {
			t.Errorf("entry %d %q (%s, max_parses %d, pes %d, no_cache %v): accepted=%v ambiguous=%v num_parses=%d, serial %v/%v/%d\n got: %q\nwant: %q",
				i, req.Text, req.Backend, req.MaxParses, req.PEs, req.NoCache,
				got.Accepted, got.Ambiguous, got.NumParses, want.Accepted, want.Ambiguous, want.NumParses, got.Parses, want.Parses)
		}
	}
}
