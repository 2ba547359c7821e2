package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serial"
	"repro/internal/server"
)

// verdict is what one served sentence answered, reduced to the fields
// the oracle checks.
type verdict struct {
	words     []string
	accepted  bool
	numParses int
	parses    uint64 // hashParses of the rendered precedence graphs
	// counters, when non-nil, must equal the oracle's counters exactly.
	counters *metrics.Counters
}

func hashParses(parses []string) uint64 {
	h := fnv.New64a()
	for _, p := range parses {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func verdictOf(words []string, r *server.ParseResult, withCounters bool) verdict {
	v := verdict{words: words, accepted: r.Accepted, numParses: r.NumParses, parses: hashParses(r.Parses)}
	if withCounters {
		v.counters = r.Counters
		if v.counters == nil {
			v.counters = &metrics.Counters{}
		}
	}
	return v
}

// extractLimit maps the request convention for max_parses (0: server
// default, -1: all) onto ExtractParses' limit (0: all).
func extractLimit(maxParses int) int {
	switch {
	case maxParses == 0:
		return server.DefaultMaxParses
	case maxParses < 0:
		return 0
	}
	return maxParses
}

// oracle answers every sentence with the serial engine, the repository's
// reference, memoized per sentence.
type oracle struct {
	g         *cdg.Grammar
	maxParses int // request convention: 0 server default, -1 all
	// byParses makes "accepted" mean "at least one parse was extracted"
	// (the lattice engine's rule) instead of "every role kept a value".
	byParses bool
	// masparCounters takes the expected counters from a solo MasPar run
	// of the sentence instead of the serial run.
	masparCounters bool

	mu   sync.Mutex
	memo map[string]verdict
}

func newOracle(g *cdg.Grammar, maxParses int, byParses, masparCounters bool) *oracle {
	return &oracle{g: g, maxParses: maxParses, byParses: byParses, masparCounters: masparCounters, memo: make(map[string]verdict)}
}

func (o *oracle) expect(words []string) (verdict, error) {
	key := strings.Join(words, " ")
	o.mu.Lock()
	v, ok := o.memo[key]
	o.mu.Unlock()
	if ok {
		return v, nil
	}
	sent, err := cdg.Resolve(o.g, words, nil)
	if err != nil {
		return verdict{}, err
	}
	res, err := serial.Parse(o.g, sent, serial.DefaultOptions())
	if err != nil {
		return verdict{}, err
	}
	parses := res.Network.ExtractParses(extractLimit(o.maxParses))
	rendered := make([]string, len(parses))
	for i, a := range parses {
		rendered[i] = cn.RenderPrecedenceGraph(a)
	}
	v = verdict{words: words, accepted: res.Accepted(), numParses: len(parses), parses: hashParses(rendered), counters: res.Counters}
	if o.byParses {
		v.accepted = len(parses) > 0
	}
	if o.masparCounters {
		mres, err := core.NewParser(o.g, core.WithBackend(core.MasPar)).ParseSentence(sent)
		if err != nil {
			return verdict{}, err
		}
		v.counters = mres.Counters
	}
	o.mu.Lock()
	o.memo[key] = v
	o.mu.Unlock()
	return v, nil
}

// mismatch describes how got differs from the oracle ("" when it agrees).
func (o *oracle) mismatch(got verdict) string {
	want, err := o.expect(got.words)
	if err != nil {
		return fmt.Sprintf("%q: oracle: %v", strings.Join(got.words, " "), err)
	}
	switch {
	case got.accepted != want.accepted:
		return fmt.Sprintf("%q: accepted=%v, serial says %v", strings.Join(got.words, " "), got.accepted, want.accepted)
	case got.numParses != want.numParses:
		return fmt.Sprintf("%q: num_parses=%d, serial says %d", strings.Join(got.words, " "), got.numParses, want.numParses)
	case got.parses != want.parses:
		return fmt.Sprintf("%q: rendered parses differ from serial", strings.Join(got.words, " "))
	case got.counters != nil && *got.counters != *want.counters:
		return fmt.Sprintf("%q: counters %v, reference run says %v", strings.Join(got.words, " "), got.counters, want.counters)
	}
	return ""
}

// checkAll runs the oracle over every verdict on two goroutines (the
// measured phase is over, so both cores are free) and returns the
// number checked and the mismatches found.
func (o *oracle) checkAll(vs []verdict) (int, []string) {
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vs); i += workers {
				if m := o.mismatch(vs[i]); m != "" {
					mu.Lock()
					bad = append(bad, m)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return len(vs), bad
}
