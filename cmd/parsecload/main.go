// Command parsecload drives a running parsecd with concurrent
// mixed-grammar traffic generated by internal/workload and reports
// client-side throughput and latency percentiles plus the server's
// batching and result-cache behaviour scraped from /metrics.
//
// Usage:
//
//	parsecload -url http://127.0.0.1:8723 -c 16 -n 500 -grammars demo,english
//	parsecload -url http://127.0.0.1:8723 -zipf 1.2 -zipf-pool 32
//	parsecload -url http://127.0.0.1:8723 -ramp -ramp-target 25ms
//	parsecload -url http://127.0.0.1:8723 -lattice -lattice-slots 5 -lattice-alts 3
//	parsecload -url http://127.0.0.1:8723 -smoke
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parsecload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("parsecload", flag.ContinueOnError)
	var (
		url     = fs.String("url", "http://127.0.0.1:8723", "base URL of the parsecd to drive")
		conc    = fs.Int("c", 8, "concurrent client connections (ramp mode: starting concurrency)")
		total   = fs.Int("n", 200, "total requests to send (ramp mode: per step)")
		grams   = fs.String("grammars", "demo,english", "comma-separated grammar mix")
		backend = fs.String("backend", "maspar", "backend for every request")
		maxLen  = fs.Int("max-len", 9, "max sentence length to generate")
		timeout = fs.Int("timeout-ms", 0, "per-request timeout_ms (0: server default)")
		seed    = fs.Int64("seed", 1, "sentence-mix random seed (0: derive from the clock)")
		smoke   = fs.Bool("smoke", false, "tiny fixed run (c=4 n=32) used by the tier-1 smoke test")
		hist    = fs.Bool("hist", false, "print the client-side latency histogram (Prometheus text, the server's metrics.LatencyBuckets)")
		noCache = fs.Bool("no-cache", false, "set no_cache on every request, bypassing the server's result cache")
		zipfS   = fs.Float64("zipf", 0, "skewed-reuse mode: draw each request from a fixed sentence pool with Zipf skew s (must be >1; 0: every request is freshly generated)")
		zipfN   = fs.Int("zipf-pool", 64, "distinct sentences in the -zipf pool")
		ramp    = fs.Bool("ramp", false, "closed-loop mode: step concurrency up (doubling from -c) until p50 exceeds -ramp-target")
		rampLat = fs.Duration("ramp-target", 50*time.Millisecond, "p50 latency budget the ramp must stay inside")
		rampMax = fs.Int("ramp-steps", 8, "max ramp steps")
		latt    = fs.Bool("lattice", false, "drive /v1/lattice with English word-lattice decodes instead of /v1/parse")
		lattSl  = fs.Int("lattice-slots", 5, "slots per generated lattice (-lattice mode)")
		lattAl  = fs.Int("lattice-alts", 3, "alternatives per slot (-lattice mode)")
		lattUt  = fs.Int("lattice-utterances", 16, "distinct utterance ids in the pool; repeats of one utterance reuse its shard's prefix snapshots (-lattice mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		*conc, *total = 4, 32
	}
	if *zipfS != 0 && *zipfS <= 1 {
		return fmt.Errorf("-zipf skew must be > 1 (got %g)", *zipfS)
	}
	if *zipfN < 1 {
		return fmt.Errorf("-zipf-pool must be >= 1 (got %d)", *zipfN)
	}
	if *latt {
		if *lattSl < 3 {
			return fmt.Errorf("-lattice-slots must be >= 3 (got %d)", *lattSl)
		}
		if *lattAl < 1 || *lattUt < 1 {
			return fmt.Errorf("-lattice-alts and -lattice-utterances must be >= 1")
		}
	}
	names := strings.Split(*grams, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	// Pre-generate the request mix so the hot loop only does HTTP.
	// The seed is always echoed in the report so any run — including
	// the tier-1 smoke test — can be replayed exactly.
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(*seed))
	endpoint := "/v1/parse"
	if *latt {
		endpoint = "/v1/lattice"
	}
	gen := func(i int) ([]byte, error) {
		if *latt {
			// Requests cycle through a fixed pool of utterances, so
			// every utterance id repeats across the run and its
			// affinity shard serves the repeats from warm prefix
			// snapshots — the serving path the mode exists to exercise.
			return server.EnglishLatticeBody(*lattSl, *lattAl, i%*lattUt, "load-utt-", *timeout, *noCache)
		}
		name := names[i%len(names)]
		if *zipfS == 0 {
			name = names[rng.Intn(len(names))]
		}
		return json.Marshal(server.ParseRequest{
			Grammar:   name,
			Backend:   *backend,
			Sentence:  workload.SentenceFor(name, rng, *maxLen),
			TimeoutMS: *timeout,
			MaxParses: 1,
			NoCache:   *noCache,
		})
	}
	reqs := make([][]byte, *total)
	if *zipfS > 0 {
		// Skewed reuse: a fixed pool of distinct sentences, requests drawn
		// Zipf(s) so a few sentences dominate — the result cache's case.
		pool := make([][]byte, *zipfN)
		for i := range pool {
			body, err := gen(i)
			if err != nil {
				return err
			}
			pool[i] = body
		}
		z := rand.NewZipf(rng, *zipfS, 1, uint64(len(pool)-1))
		for i := range reqs {
			reqs[i] = pool[z.Uint64()]
		}
	} else {
		for i := range reqs {
			body, err := gen(i)
			if err != nil {
				return err
			}
			reqs[i] = body
		}
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	if *latt {
		fmt.Fprintf(out, "parsecload: url=%s lattice mode (english, %d slots x %d alts, %d utterances) seed=%d\n",
			*url, *lattSl, *lattAl, *lattUt, *seed)
	} else {
		fmt.Fprintf(out, "parsecload: url=%s grammars=%s backend=%s seed=%d\n", *url, *grams, *backend, *seed)
	}
	if *zipfS > 0 {
		fmt.Fprintf(out, "request mix: zipf s=%g over %d distinct sentences\n", *zipfS, *zipfN)
	}

	if *ramp {
		return runRamp(out, client, *url+endpoint, reqs, *conc, *rampLat, *rampMax, *url)
	}

	// Client-observed latency, bucketed exactly like the server's
	// parsecd_parse_latency_seconds so the two histograms line up when
	// compared side by side (the gap between them is queueing + HTTP).
	latHist := metrics.NewHistogram(metrics.LatencyBuckets()...)
	res := runLoad(client, *url+endpoint, reqs, *conc, latHist)

	fmt.Fprintf(out, "requests=%d errors=%d sheds=%d elapsed=%v throughput=%.1f req/s\n",
		*total, res.errs, res.sheds, res.elapsed.Round(time.Millisecond), res.throughput())
	for _, c := range res.codes() {
		fmt.Fprintf(out, "  status %d: %d\n", c, res.byStatus[c])
	}
	for _, s := range res.shards() {
		fmt.Fprintf(out, "  shard %s: %d\n", s, res.byShard[s])
	}
	fmt.Fprintf(out, "latency p50=%v p90=%v p99=%v max=%v\n",
		res.pct(0.50).Round(time.Microsecond), res.pct(0.90).Round(time.Microsecond),
		res.pct(0.99).Round(time.Microsecond), res.pct(1.0).Round(time.Microsecond))

	printServerSide(out, client, *url)
	if *hist {
		w := metrics.NewWriter(out)
		w.Histogram("parsecload_request_latency_seconds", "client-observed end-to-end request latency", latHist)
		if shards := res.shards(); len(shards) > 0 {
			w.Header("parsecload_shard_requests_total", "counter", "requests attributed to each serving shard (X-Parsec-Shard)")
			for _, s := range shards {
				w.Sample("parsecload_shard_requests_total", float64(res.byShard[s]), "shard", s)
			}
		}
	}
	return nil
}

// loadResult is one load run's client-side accounting.
type loadResult struct {
	elapsed  time.Duration
	lats     []time.Duration // sorted
	byStatus map[int]int
	byShard  map[string]int // keyed by X-Parsec-Shard; empty when unsharded
	errs     int
	sheds    int           // 429 responses (admission control / queue full)
	backoff  time.Duration // total worker time spent honoring Retry-After
}

func (r *loadResult) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lats)) / r.elapsed.Seconds()
}

func (r *loadResult) pct(p float64) time.Duration { return metrics.Quantile(r.lats, p) }

func (r *loadResult) codes() []int {
	var codes []int
	for c := range r.byStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	return codes
}

func (r *loadResult) shards() []string {
	var names []string
	for s := range r.byShard {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// runLoad fires every request in reqs at the given concurrency against
// endpoint (a full URL including path) and collects latencies. latHist
// may be nil.
func runLoad(client *http.Client, endpoint string, reqs [][]byte, conc int, latHist *metrics.Histogram) *loadResult {
	res := &loadResult{byStatus: map[int]int{}, byShard: map[string]int{}}
	var (
		next atomic.Int64
		mu   sync.Mutex
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				status, shard, retryAfter, err := post(client, endpoint, reqs[i])
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					res.errs++
				} else {
					res.byStatus[status]++
					if status == http.StatusTooManyRequests {
						res.sheds++
					}
					if shard != "" {
						res.byShard[shard]++
					}
					res.lats = append(res.lats, lat)
					if latHist != nil {
						latHist.Observe(lat.Seconds())
					}
					if retryAfter > 0 {
						res.backoff += retryAfter
					}
				}
				mu.Unlock()
				if retryAfter > 0 {
					// Honor the server's backpressure hint before this worker
					// sends again — the closed loop backs off instead of
					// hammering a shedding fleet.
					time.Sleep(retryAfter)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
	return res
}

// runRamp is the closed-loop mode: run the full request mix at
// doubling concurrency until p50 exceeds the latency budget, and
// report the highest step that stayed inside it. endpoint is the full
// request URL; base is the server root for the /metrics scrape.
func runRamp(out io.Writer, client *http.Client, endpoint string, reqs [][]byte, startConc int, target time.Duration, maxSteps int, base string) error {
	fmt.Fprintf(out, "ramp: target p50=%v, %d requests/step, up to %d steps\n", target, len(reqs), maxSteps)
	bestConc, bestThroughput := 0, 0.0
	c := startConc
	for step := 1; step <= maxSteps; step++ {
		res := runLoad(client, endpoint, reqs, c, nil)
		p50 := res.pct(0.50)
		// A shed step is over budget by definition: the fleet refused
		// load, so there is no point doubling concurrency into it. The
		// workers already honored the Retry-After hints inside the step.
		ok := p50 <= target && res.errs == 0 && res.sheds == 0
		verdict := "ok"
		if !ok {
			verdict = "over budget"
		}
		fmt.Fprintf(out, "  step %d: c=%d throughput=%.1f req/s p50=%v p90=%v errors=%d sheds=%d backoff=%v [%s]\n",
			step, c, res.throughput(), p50.Round(time.Microsecond),
			res.pct(0.90).Round(time.Microsecond), res.errs, res.sheds,
			res.backoff.Round(time.Millisecond), verdict)
		if !ok {
			break
		}
		bestConc, bestThroughput = c, res.throughput()
		c *= 2
	}
	if bestConc == 0 {
		fmt.Fprintf(out, "ramp result: no step met the p50 budget %v\n", target)
	} else {
		fmt.Fprintf(out, "ramp result: max sustainable c=%d at %.1f req/s within p50 %v\n",
			bestConc, bestThroughput, target)
	}
	printServerSide(out, client, base)
	return nil
}

// serverSideFrom reads the target's /metrics, every sample summed
// across its label sets (fleet-summed already when the target is a
// router); nil when the scrape fails.
func serverSideFrom(client *http.Client, base string) map[string]float64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil
	}
	return metrics.Totals(fams)
}

// printServerSide reports the server's batching, result-cache, lattice
// and router behaviour for this run, read from /metrics.
func printServerSide(out io.Writer, client *http.Client, url string) {
	v := serverSideFrom(client, url)
	if batches := v["parsecd_batch_size_count"]; batches > 0 {
		fmt.Fprintf(out, "server batching: batches=%.0f mean-batch-size=%.2f\n", batches, v["parsecd_batch_size_sum"]/batches)
	}
	hits, misses := v["parsecd_result_cache_hits_total"], v["parsecd_result_cache_misses_total"]
	if hits+misses > 0 {
		fmt.Fprintf(out, "server result cache: hits=%.0f misses=%.0f hit-rate=%.1f%%\n", hits, misses, 100*hits/(hits+misses))
	}
	if n := v["parsecd_lattice_requests_total"]; n > 0 {
		fmt.Fprintf(out, "server lattice: requests=%.0f paths=%.0f\n", n, v["parsecd_lattice_paths_expanded_total"])
	}
	hits, misses = v["parsecd_lattice_prefix_cache_hits_total"], v["parsecd_lattice_prefix_cache_misses_total"]
	if hits+misses > 0 {
		fmt.Fprintf(out, "server prefix cache: hits=%.0f misses=%.0f hit-rate=%.1f%%\n", hits, misses, 100*hits/(hits+misses))
	}
	// Through a router, the shards' cache sees only the router cache's
	// misses, so the router's own line says how many answers were cached.
	hits, misses = v["parsecrouter_result_cache_hits_total"], v["parsecrouter_result_cache_misses_total"]
	if hits+misses > 0 {
		fmt.Fprintf(out, "router result cache: hits=%.0f misses=%.0f hit-rate=%.1f%%\n", hits, misses, 100*hits/(hits+misses))
	}
	if sheds := v["parsecrouter_sheds_total"]; sheds > 0 {
		fmt.Fprintf(out, "router sheds: %.0f\n", sheds)
	}
}

// retryAfterCap bounds how long a worker honors one Retry-After hint.
const retryAfterCap = 5 * time.Second

// post returns the HTTP status, the serving shard's name (the
// X-Parsec-Shard response header; empty when the server doesn't
// shard), and the Retry-After backoff the response asked for (zero
// when absent; only 429/503 responses are consulted).
func post(client *http.Client, url string, body []byte) (int, string, time.Duration, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	var backoff time.Duration
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
			backoff = time.Duration(secs) * time.Second
			if backoff > retryAfterCap {
				backoff = retryAfterCap
			}
		}
	}
	return resp.StatusCode, resp.Header.Get(server.ShardHeader), backoff, nil
}
