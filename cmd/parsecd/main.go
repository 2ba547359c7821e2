// Command parsecd serves CDG parsing over HTTP/JSON: POST /v1/parse and
// /v1/batch run sentences through the PARSEC backends with a
// compiled-grammar cache and per-backend worker queues, where a free
// MasPar worker takes the queued jobs of one configuration and sentence
// length and parses them back to back; GET /metrics exposes
// Prometheus text metrics (machine-work counters, queue wait, parse
// latency, batch size), /healthz liveness, and /v1/grammars the grammar
// inventory. SIGTERM/SIGINT drain gracefully: accepted requests finish,
// then the process exits.
//
// Usage:
//
//	parsecd -addr 127.0.0.1:8723
//	curl -s localhost:8723/v1/parse -d '{"grammar":"demo","text":"the program runs"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "parsecd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until stop fires or a termination
// signal arrives. ready, when non-nil, receives the bound address once
// the listener is up (used by tests; nil in production).
func run(args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("parsecd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8723", "listen address (use :0 for an ephemeral port)")
		workers     = fs.Int("workers", 2, "workers per backend queue")
		queueDepth  = fs.Int("queue", 256, "max queued requests per backend before 429s")
		maxBatch    = fs.Int("max-batch", 16, "max queued maspar requests of one configuration and length taken by one worker")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		drain       = fs.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
		cacheSize   = fs.Int("cache-entries", 4096, "result cache capacity in entries (-1 disables the result cache)")
		shardName   = fs.String("shard-name", "", "name echoed as the X-Parsec-Shard response header (for fleets behind parsecrouter)")
		latticeMax  = fs.Int("lattice-max-paths", 0, "max candidate paths expanded per lattice decode (0: server default)")
		latticePfx  = fs.Int("lattice-prefix-entries", 0, "prefix-snapshot cache capacity in entries (0: server default, -1 disables prefix reuse)")
		debugFaults = fs.Bool("debug-faults", false, "mount POST /debug/fault for injected request stalls (benchmark fleets only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(logw, "parsecd ", log.LstdFlags|log.Lmsgprefix)

	s := server.New(server.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *timeout,

		ResultCacheEntries: *cacheSize,
		ShardName:          *shardName,

		LatticeMaxPaths:      *latticeMax,
		LatticePrefixEntries: *latticePfx,
		DebugFaults:          *debugFaults,
	})
	bound, err := s.Start()
	if err != nil {
		return err
	}
	// Registered before readiness is announced, so a signal sent as
	// soon as the address is known is caught, not fatal.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	logger.Printf("listening on http://%s (workers=%d/backend queue=%d max-batch=%d)",
		bound, *workers, *queueDepth, *maxBatch)
	if ready != nil {
		ready <- bound
	}

	<-ctx.Done()
	stop()

	logger.Printf("shutdown signal received; draining (up to %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := s.Stats()
	logger.Printf("drained: parses=%d batches=%d mean-batch=%.2f timeouts=%d rejected=%d",
		st.Parses, st.Batches, st.MeanBatchSize, st.Timeouts, st.Rejected)
	return nil
}
