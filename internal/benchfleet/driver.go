package benchfleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// Lattice-mix shape: slots × alternatives over a fixed utterance pool.
const (
	latticeSlots      = 5
	latticeAlts       = 3
	latticeUtterances = 8
)

// buildRequests pre-generates phase p's request bodies from a seeded
// generator (workload.SentenceFor, parsecload's too): the hot loop only
// does HTTP, and the same (scenario seed, phase index) always replays
// the same mix.
func buildRequests(p Phase, backend string, seed int64) ([][]byte, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	gen := func(i int) ([]byte, error) {
		if p.Mix == "lattice" {
			return latticeBody(i % latticeUtterances)
		}
		name := p.Grammars[rng.Intn(len(p.Grammars))]
		return json.Marshal(server.ParseRequest{
			Grammar:   name,
			Backend:   backend,
			Sentence:  workload.SentenceFor(name, rng, p.MaxLen),
			MaxParses: 1,
		})
	}
	reqs := make([][]byte, p.Requests)
	if p.Mix == "zipf" {
		pool := make([][]byte, p.ZipfPool)
		for i := range pool {
			body, err := gen(i)
			if err != nil {
				return nil, err
			}
			pool[i] = body
		}
		z := rand.NewZipf(rng, p.ZipfS, 1, uint64(len(pool)-1))
		for i := range reqs {
			reqs[i] = pool[z.Uint64()]
		}
		return reqs, nil
	}
	for i := range reqs {
		body, err := gen(i)
		if err != nil {
			return nil, err
		}
		reqs[i] = body
	}
	return reqs, nil
}

// latticeBody builds the request for the uidx-th pool utterance, the
// same deterministic lattice parsecload's -lattice mode sends.
func latticeBody(uidx int) ([]byte, error) {
	grid := workload.EnglishLattice(latticeSlots, latticeAlts, uint64(uidx))
	ls := make([][]server.LatticeAlt, len(grid))
	for s, words := range grid {
		row := make([]server.LatticeAlt, len(words))
		for j, w := range words {
			row[j] = server.LatticeAlt{Word: w, Score: 0.9 - 0.15*float64(j)}
		}
		ls[s] = row
	}
	return json.Marshal(server.LatticeRequest{
		Grammar:     "english",
		UtteranceID: fmt.Sprintf("bench-utt-%d", uidx),
		Slots:       ls,
		MaxParses:   1,
	})
}

// drivePhase fires the phase's request mix at its concurrency against
// the router and records every request: status, serving shard and
// latency. Wall-clock elapsed is measured only to report throughput;
// request attribution and membership stepping stay deterministic.
func drivePhase(client *http.Client, routerURL string, p Phase, backend string, seed int64) (PhaseResult, error) {
	p = p.withDefaults()
	reqs, err := buildRequests(p, backend, seed)
	if err != nil {
		return PhaseResult{}, err
	}
	endpoint := routerURL + "/v1/parse"
	if p.Mix == "lattice" {
		endpoint = routerURL + "/v1/lattice"
	}

	res := PhaseResult{Name: p.Name, Requests: make([]Request, len(reqs))}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				status, shard := postOnce(client, endpoint, reqs[i])
				res.Requests[i] = Request{Shard: shard, Status: status, LatNs: time.Since(t0).Nanoseconds()}
			}
		}()
	}
	wg.Wait()
	res.ElapsedNs = time.Since(start).Nanoseconds()
	return res, nil
}

// postOnce sends one request and returns the status and serving shard
// (X-Parsec-Shard); a transport error returns status 0.
func postOnce(client *http.Client, url string, body []byte) (int, string) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode, resp.Header.Get(server.ShardHeader)
}
