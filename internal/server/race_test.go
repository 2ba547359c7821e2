package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammer drives the cache, pool, and metrics from many
// goroutines at once. Run it under -race (make ci does): it exists to
// surface data races in the grammar cache, the pool's queues, and the
// metrics aggregation, not to assert throughput.
func TestConcurrentHammer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 512})
	const (
		goroutines = 8
		perG       = 20
	)
	grammarMix := []ParseRequest{
		{Grammar: "demo", Backend: "serial", Text: "the program runs"},
		{Grammar: "demo", Backend: "pram", Text: "the program runs"},
		{Grammar: "english", Backend: "serial", Text: "the dog walked"},
		{Grammar: "dyck", Backend: "serial", Text: "( )"},
		{GrammarSource: tinyGrammar, Backend: "serial", Text: "w w"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 5 {
				case 3: // interleave metric scrapes with traffic
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						errs <- err
						continue
					}
					resp.Body.Close()
				case 4:
					resp, err := http.Get(ts.URL + "/v1/grammars")
					if err != nil {
						errs <- err
						continue
					}
					resp.Body.Close()
				default:
					req := grammarMix[(g+i)%len(grammarMix)]
					status, data := postJSON(t, ts.URL+"/v1/parse", req)
					if status != http.StatusOK {
						errs <- fmt.Errorf("goroutine %d req %d: status %d: %s", g, i, status, data)
						continue
					}
					if res := decodeResult(t, data); !res.Accepted {
						errs <- fmt.Errorf("goroutine %d req %d: rejected: %s", g, i, data)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Parses == 0 || st.Batches == 0 {
		t.Fatalf("no work recorded: %+v", st)
	}
	// Every grammar compiles at most once even under concurrency.
	if st.CacheMisses > 4 {
		t.Errorf("cache misses=%d, want one compile per distinct grammar (≤4)", st.CacheMisses)
	}
	var keys []string
	keys = append(keys, s.cache.Keys()...)
	if !strings.Contains(strings.Join(keys, " "), "src:") {
		t.Errorf("inline grammar missing from cache: %v", keys)
	}
}
