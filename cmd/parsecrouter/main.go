// Command parsecrouter shards parse traffic across a fleet of parsecd
// backends: POST /v1/parse and /v1/batch are rendezvous-hashed on the
// canonical result-cache key so repeated sentences keep landing on the
// same node (its result cache stays hot), failed shards are ejected by
// health probes and retried on the next-ranked candidate, GET /metrics
// re-emits the fleet's parsecd_* counters summed plus the router's own
// parsecrouter_* series, and /v1/grammars merges the fleet inventory.
// A /v1/parse answer a shard served from its own result cache is kept
// in a small router cache (-cache-entries), which answers its repeats
// without a forward.
//
// Usage:
//
//	parsecd -addr 127.0.0.1:9001 -shard-name shard0 &
//	parsecd -addr 127.0.0.1:9002 -shard-name shard1 &
//	parsecrouter -addr 127.0.0.1:8724 -shards http://127.0.0.1:9001,http://127.0.0.1:9002
//	curl -s localhost:8724/v1/parse -d '{"grammar":"demo","text":"the program runs"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "parsecrouter:", err)
		os.Exit(1)
	}
}

// run starts the router and blocks until a termination signal arrives.
// ready, when non-nil, receives the bound address once the listener is
// up (used by tests; nil in production).
func run(args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("parsecrouter", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8724", "listen address (use :0 for an ephemeral port)")
		shards        = fs.String("shards", "", "comma-separated parsecd base URLs (required)")
		probeInterval = fs.Duration("probe-interval", time.Second, "health-probe period (negative disables probing)")
		probeTimeout  = fs.Duration("probe-timeout", time.Second, "per-probe deadline")
		ejectAfter    = fs.Int("eject-after", 3, "consecutive probe failures that eject a shard")
		readmitAfter  = fs.Int("readmit-after", 2, "consecutive probe successes that re-admit an ejected shard")
		retries       = fs.Int("retries", 2, "failover attempts after the first shard (so a request touches at most 1+retries shards)")
		replicateTop  = fs.Int("replicate-top", 0, "replicate up to this many hot keys across their HRW prefix (0 disables)")
		replicaFactor = fs.Int("replica-factor", 2, "replica prefix length R for promoted hot keys")
		hotShare      = fs.Float64("hot-share", 0.05, "request share of the window that promotes a key")
		hotWindow     = fs.Int("hot-window", 2048, "hot-key tracker sliding-window size, in requests")
		hedge         = fs.Bool("hedge", false, "hedge replicated-key requests to the next replica at half the p99 budget")
		hedgeDelay    = fs.Duration("hedge-delay", 25*time.Millisecond, "earliest hedge: cold-start delay and floor under the adaptive p99/2 budget (negative hedges immediately)")
		maxInflight   = fs.Int("max-inflight", 0, "per-shard in-flight forward cap; beyond it requests shed with 429, bulk first (0 disables)")
		cacheEntries  = fs.Int("cache-entries", 256, "router result cache capacity in entries: a /v1/parse answer a shard served from its own result cache is kept, and repeats are answered here without a forward (-1 disables). Kept small on purpose: the router holds the head of the request distribution, the shards' caches the tail")
		drain         = fs.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fleet []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			fleet = append(fleet, strings.TrimRight(u, "/"))
		}
	}
	if len(fleet) == 0 {
		return fmt.Errorf("no shards: pass -shards http://host:port,http://host:port,...")
	}
	logger := log.New(logw, "parsecrouter ", log.LstdFlags|log.Lmsgprefix)

	r, err := router.New(router.Config{
		Addr:               *addr,
		Shards:             fleet,
		ProbeInterval:      *probeInterval,
		ProbeTimeout:       *probeTimeout,
		EjectAfter:         *ejectAfter,
		ReadmitAfter:       *readmitAfter,
		Retries:            *retries,
		ReplicateTop:       *replicateTop,
		ReplicaFactor:      *replicaFactor,
		HotKeyShare:        *hotShare,
		HotKeyWindow:       *hotWindow,
		Hedge:              *hedge,
		HedgeDelay:         *hedgeDelay,
		MaxInflight:        *maxInflight,
		ResultCacheEntries: *cacheEntries,
	})
	if err != nil {
		return err
	}
	bound, err := r.Start()
	if err != nil {
		return err
	}
	// Registered before readiness is announced, so a signal sent as
	// soon as the address is known is caught, not fatal.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	logger.Printf("routing on http://%s across %d shards (probe=%v eject-after=%d readmit-after=%d retries=%d replicate-top=%d replica-factor=%d hedge=%v max-inflight=%d cache-entries=%d)",
		bound, len(fleet), *probeInterval, *ejectAfter, *readmitAfter, *retries, *replicateTop, *replicaFactor, *hedge, *maxInflight, *cacheEntries)
	if ready != nil {
		ready <- bound
	}

	<-ctx.Done()
	stop()

	logger.Printf("shutdown signal received; draining (up to %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := r.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := r.Stats()
	var total uint64
	urls := make([]string, 0, len(st.Requests))
	for u, n := range st.Requests {
		total += n
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		logger.Printf("shard %s: requests=%d errors=%d ejections=%d", u, st.Requests[u], st.Errors[u], st.Ejections[u])
	}
	logger.Printf("drained: requests=%d failovers=%d empty-fleet=%d probes=%d (failed=%d) hotkeys=%d/%d hedges=%d (wins=%d) sheds=%d+%d cache-hits=%d (misses=%d)",
		total, st.Failovers, st.EmptyFleet, st.Probes, st.ProbeFailures,
		st.HotKeyPromotions, st.HotKeyDemotions, st.Hedges, st.HedgeWins,
		st.ShedsInteractive, st.ShedsBulk, st.CacheHits, st.CacheMisses)
	return nil
}
