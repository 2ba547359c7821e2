package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Hedged requests. A replicated hot key has more than one shard
// holding its cached result, so when the chosen replica stalls — GC
// pause, noisy neighbor, saturated accept queue — the router does not
// have to ride the stall to the deadline: once half the p99-derived
// budget is spent with no answer — and at least the configured
// HedgeDelay floor has passed — it fires ONE duplicate at the next
// replica in the prefix, takes whichever response becomes terminal
// first, and cancels the loser through its context. The p99 comes from
// a per-shard streaming digest of observed forwarding latencies; until
// a shard has digestMinSamples observations the floor alone applies. First-wins accounting: exactly one attempt is counted
// as served (countServed) and relayed, so no counter family ever sees
// a hedged request twice.

// digestRing bounds the per-shard latency reservoir.
const digestRing = 256

// digestMinSamples is how many observations a shard needs before its
// digest drives the hedge delay instead of the configured default.
const digestMinSamples = 32

// shardDigest is one shard's recent-latency reservoir. The p99 is
// computed over the last digestRing observations and cached between
// recomputes so the forwarding path never sorts under load.
type shardDigest struct {
	ring  [digestRing]time.Duration
	n     uint64 // total observations (ring index = n % digestRing)
	stale int    // observations since the cached quantile was computed
	p99   time.Duration
}

// latencyDigest tracks every shard's service-time distribution as seen
// from the router (connect + shard-side queue + parse + response
// headers).
type latencyDigest struct {
	mu       sync.Mutex
	perShard map[string]*shardDigest
}

// newLatencyDigest returns the router's digest, or nil when hedging is
// off: only hedgeDelay reads it.
func newLatencyDigest(hedge bool) *latencyDigest {
	if !hedge {
		return nil
	}
	return &latencyDigest{perShard: make(map[string]*shardDigest)}
}

// observe folds one completed forward into shard's digest (a no-op on
// a nil digest).
func (d *latencyDigest) observe(shard string, lat time.Duration) {
	if d == nil {
		return
	}
	d.mu.Lock()
	sd, ok := d.perShard[shard]
	if !ok {
		sd = &shardDigest{}
		d.perShard[shard] = sd
	}
	sd.ring[sd.n%digestRing] = lat
	sd.n++
	sd.stale++
	d.mu.Unlock()
}

// quantile returns the digest's cached p99 for shard and whether the
// shard has enough samples to trust it. The cache refreshes lazily
// every 16 observations.
func (d *latencyDigest) quantile(shard string) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sd, ok := d.perShard[shard]
	if !ok || sd.n < digestMinSamples {
		return 0, false
	}
	if sd.stale >= 16 || sd.p99 == 0 {
		n := int(sd.n)
		if n > digestRing {
			n = digestRing
		}
		sorted := make([]time.Duration, n)
		copy(sorted, sd.ring[:n])
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		sd.p99 = sorted[(99*n-1)/100]
		sd.stale = 0
	}
	return sd.p99, true
}

// hedgeDelay is the time to wait on primary before firing the hedge:
// half the p99-derived budget, but never earlier than the configured
// HedgeDelay, which doubles as the cold-start value while the digest
// has too few samples. The floor is what bounds the hedge rate: a
// healthy cache-hit distribution is tight (p99 within a small multiple
// of the median), so a bare p99/2 trigger would sit near the median
// and hedge a large fraction of requests; the floor keeps healthy
// traffic un-hedged while the adaptive half-budget takes over exactly
// when a shard's p99 degrades past twice the floor. A negative
// configured HedgeDelay means "hedge immediately" (the
// deterministic-test setting).
func (r *Router) hedgeDelay(primary string) time.Duration {
	if r.cfg.HedgeDelay < 0 {
		return 0
	}
	if p99, ok := r.digest.quantile(primary); ok && p99/2 > r.cfg.HedgeDelay {
		return p99 / 2
	}
	return r.cfg.HedgeDelay
}

// attemptOut is one forwarding attempt's outcome inside hedgedDo.
type attemptOut struct {
	resp  *http.Response
	shard string
	err   error
	shed  bool
	hedge bool // this was the duplicate, not the primary
}

// terminal reports whether the attempt settles the request: any
// response outside the retryable set (see retryable) wins immediately.
func (a *attemptOut) terminal() bool {
	return a.err == nil && !a.shed && a.resp != nil && !retryable(a.resp.StatusCode)
}

// hedgedDo forwards body to primary and, if the hedge delay elapses
// first, duplicates it to next. The first terminal response wins and
// is counted served; the loser's context is cancelled and its
// completion awaited (so admission slots and counters are settled when
// hedgedDo returns), counted in parsecrouter_hedge_cancels_total. The
// winner's context lives until the caller closes its body: ending it
// earlier can cut the reply off mid-relay. Returns ok=false when no
// attempt terminated (the caller falls back to ordinary failover) and
// shed=true when every attempt was refused by admission control.
func (r *Router) hedgedDo(ctx context.Context, path, contentType string, body []byte, primary, next string, class reqClass) (forwardResult, bool, bool) {
	results := make(chan attemptOut, 2)
	pctx, pcancel := context.WithCancel(ctx)
	sctx, scancel := context.WithCancel(ctx)
	launch := func(actx context.Context, shard string, hedge bool) {
		resp, shed, err := r.forwardOnce(actx, shard, path, contentType, bytes.NewReader(body), class)
		results <- attemptOut{resp: resp, shard: shard, err: err, shed: shed, hedge: hedge}
	}
	go launch(pctx, primary, false)

	timer := time.NewTimer(r.hedgeDelay(primary))
	defer timer.Stop()

	pending := 1
	hedged := false
	fireHedge := func() {
		if hedged {
			return
		}
		hedged = true
		r.m.countHedge()
		go launch(sctx, next, true)
		pending++
	}

	var winner *attemptOut
	var last attemptOut
	shedCount := 0
	for pending > 0 {
		var out attemptOut
		if !hedged {
			select {
			case out = <-results:
			case <-timer.C:
				fireHedge()
				continue
			}
		} else {
			out = <-results
		}
		pending--
		if out.terminal() {
			winner = &out
			break
		}
		// The attempt failed (transport error, retryable status, or an
		// admission refusal). Settle its response, remember it, and —
		// if the duplicate isn't in flight yet — fire it now rather
		// than waiting out the timer against a dead shard.
		if out.resp != nil {
			r.m.countError(out.shard)
			out.err = fmt.Errorf("shard %s: status %d", out.shard, out.resp.StatusCode)
			drain(out.resp.Body)
			out.resp.Body.Close()
		} else if out.err != nil {
			r.m.countError(out.shard)
		}
		if out.shed {
			shedCount++
		}
		if out.err != nil || last.err == nil {
			last = out // a refused slot carries no error to report
		}
		if !hedged {
			fireHedge()
		}
	}
	if winner == nil {
		pcancel()
		scancel()
		// Both attempts failed. All-shed means admission refused the
		// request outright.
		return forwardResult{shard: last.shard, err: last.err}, false, shedCount == pendingAttempts(hedged)
	}
	winCancel, loseCancel := pcancel, scancel
	if winner.hedge {
		winCancel, loseCancel = scancel, pcancel
	}
	winner.resp.Body = cancelOnClose{winner.resp.Body, winCancel}
	// Cancel the loser and wait for it so its slot and counters are
	// settled before the winner is relayed.
	loseCancel()
	if pending > 0 {
		out := <-results
		if out.resp != nil {
			drain(out.resp.Body)
			out.resp.Body.Close()
		}
		if out.err != nil && errors.Is(out.err, context.Canceled) {
			r.m.countHedgeCancel()
		}
	}
	if winner.hedge {
		r.m.countHedgeWin()
	}
	r.m.countServed(winner.shard)
	return forwardResult{resp: winner.resp, shard: winner.shard}, true, false
}

// pendingAttempts is how many attempts hedgedDo launched in total.
func pendingAttempts(hedged bool) int {
	if hedged {
		return 2
	}
	return 1
}

// cancelOnClose ends a winning attempt's context once its body is
// closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
