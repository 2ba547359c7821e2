package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
)

// TestLatticeStreamFailsOverOnlyBeforeSlotsFlow pins the stream's
// replay rule: a stream may fail over while no client slot has been
// read, and the next shard then receives the header and every slot;
// once its shard has read slots, the stream cannot be replayed, so a
// 500 from that shard reaches the client with no failover.
func TestLatticeStreamFailsOverOnlyBeforeSlotsFlow(t *testing.T) {
	lreq := server.LatticeRequest{Grammar: "english", UtteranceID: "replay-utt"}
	var payload strings.Builder
	enc := json.NewEncoder(&payload)
	if err := enc.Encode(lreq); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"the", "dog", "walked"} {
		if err := enc.Encode(server.LatticeStreamSlot{Alts: []server.LatticeAlt{{Word: w}}}); err != nil {
			t.Fatal(err)
		}
	}
	shards := []string{"http://a:1", "http://b:1"}
	order := RankShards(shards, server.LatticeAffinityKey(lreq))
	home, other := strings.TrimPrefix(order[0], "http://"), strings.TrimPrefix(order[1], "http://")

	for _, tc := range []struct {
		name          string
		homeReads     bool // the home shard reads the whole body before answering 500
		wantStatus    int
		wantFailovers uint64
		wantOther     string // the body the other shard receives; "" when it sees no request
	}{
		{"home fails before reading slots", false, http.StatusOK, 1, payload.String()},
		{"home fails after reading slots", true, http.StatusInternalServerError, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var otherGot []string
			fleet := fakeShards{
				home: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					if tc.homeReads {
						io.Copy(io.Discard, req.Body) //nolint:errcheck
					}
					w.WriteHeader(http.StatusInternalServerError)
				}),
				other: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					body, _ := io.ReadAll(req.Body)
					mu.Lock()
					otherGot = append(otherGot, string(body))
					mu.Unlock()
					w.Header().Set("Content-Type", "application/x-ndjson")
					io.WriteString(w, `{"slot":3,"final":true}`+"\n") //nolint:errcheck
				}),
			}
			r, err := New(Config{Shards: shards, ProbeInterval: -1, Client: &http.Client{Transport: fleet}})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lattice/stream", strings.NewReader(payload.String())))
			if rec.Code != tc.wantStatus {
				t.Errorf("status %d, want %d: %s", rec.Code, tc.wantStatus, rec.Body)
			}
			if got := r.Stats().Failovers; got != tc.wantFailovers {
				t.Errorf("failovers %d, want %d", got, tc.wantFailovers)
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case tc.wantOther == "" && len(otherGot) != 0:
				t.Errorf("the other shard received %d requests, want none: %q", len(otherGot), otherGot)
			case tc.wantOther != "" && (len(otherGot) != 1 || otherGot[0] != tc.wantOther):
				t.Errorf("the other shard received %q, want the header and every slot once:\n%s", otherGot, tc.wantOther)
			}
		})
	}
}
