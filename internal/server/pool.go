package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
)

// job is one parse request travelling through the pool. The sentence is
// already resolved against the grammar (client errors never occupy a
// worker). The result channel is buffered so a worker can deliver even
// after the handler gave up on the deadline.
type job struct {
	words   []string
	sent    *cdg.Sentence
	g       *cdg.Grammar
	gkey    string
	backend core.Backend
	// cfgKey is the batching key: grammar key + backend + every parser
	// option that affects the run. MasPar jobs share a batch (one
	// compiled parser, one simulator configuration) only when the whole
	// key and the sentence length match.
	cfgKey    string
	opts      []core.Option
	maxParses int
	ctx       context.Context
	enq       time.Time // stamped by Submit
	result    chan jobResult
}

// jobResult pairs the wire result with the HTTP status it maps to. An
// answer from the result cache carries the entry's stored encoding in
// body and leaves resp empty.
type jobResult struct {
	status int
	resp   ParseResult
	body   []byte
}

// encoded is jr's compact JSON: a cached answer's stored bytes as they
// are, any other answer encoded now.
func (jr jobResult) encoded() []byte {
	if jr.body != nil {
		return jr.body
	}
	return encodeResult(jr.resp)
}

// failed is j's error answer with the given status; a 504 is marked
// TimedOut.
func (j *job) failed(status int, msg string) jobResult {
	return jobResult{
		status: status,
		resp: ParseResult{
			Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
			TimedOut: status == http.StatusGatewayTimeout, Error: msg,
		},
	}
}

// deliver stamps jr with j's queue wait and batch size and hands it to
// j's buffered result channel, which absorbs a delivery the handler no
// longer waits for.
func (j *job) deliver(jr jobResult, wait time.Duration, batchSize int) {
	jr.resp.QueueTimeUS = durationUS(wait)
	jr.resp.BatchSize = batchSize
	j.result <- jr
}

// backendQueue is the bounded FIFO of one machine model. Each backend
// gets its own queue so a pile-up of slow maspar simulations cannot
// starve cheap serial parses.
type backendQueue struct {
	backend core.Backend
	// wake holds at most one token per worker. Submit drops tokens in
	// after queueing a unit; a worker that found the FIFO empty blocks
	// on it. A stale token costs one more look at the FIFO. Close
	// closes it.
	wake chan struct{}

	mu sync.Mutex
	// jobs is the FIFO, guarded by mu. Submit appends a unit's jobs
	// contiguously; workers take from the head.
	jobs []*job
}

// Pool is the bounded worker pool: per-backend FIFOs that Workers
// workers per backend pull from directly. No job waits for anything
// but a free worker.
type Pool struct {
	workers  int
	maxBatch int
	depth    int
	m        *serverMetrics

	mu     sync.RWMutex // guards closed vs. in-flight submits
	closed bool

	queues    map[core.Backend]*backendQueue
	wg        sync.WaitGroup // workers
	closeOnce sync.Once
}

// errQueueFull is returned (as a 429) when a backend's queue has no
// room for a whole unit.
var errQueueFull = errors.New("queue full")

// newPool builds the queues; start launches the workers.
func newPool(workers, depth, maxBatch int, m *serverMetrics) *Pool {
	p := &Pool{
		workers:  workers,
		maxBatch: maxBatch,
		depth:    depth,
		m:        m,
		queues:   make(map[core.Backend]*backendQueue),
	}
	for _, b := range core.Backends() {
		p.queues[b] = &backendQueue{backend: b, wake: make(chan struct{}, workers)}
	}
	return p
}

// start launches the workers of every backend. Close waits only for
// workers started before it.
func (p *Pool) start() {
	for _, b := range core.Backends() {
		q := p.queues[b]
		p.wg.Add(p.workers)
		for i := 0; i < p.workers; i++ {
			go p.worker(q)
		}
	}
}

// Submit enqueues a unit — one job, or every job one request sends to
// one backend — all or nothing: when the backend's queue has no room
// for the whole unit (less room for bulk-class jobs) it rejects with
// errQueueFull, and after Close with an error.
func (p *Pool) Submit(unit []*job, bulk bool) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errors.New("server is draining")
	}
	// Bulk-class units keep a quarter of the queue (at least one slot)
	// free for interactive traffic, so a bulk ramp saturating the pool
	// sheds before it can starve single parses: the priority order the
	// router applies when shedding (see ClassHeader).
	limit := p.depth
	if bulk {
		limit = BulkLimit(p.depth)
	}
	q := p.queues[unit[0].backend]
	now := time.Now()
	q.mu.Lock()
	if len(q.jobs)+len(unit) > limit {
		q.mu.Unlock()
		p.m.rejected.Add(uint64(len(unit)))
		return errQueueFull
	}
	for _, j := range unit {
		j.enq = now
	}
	q.jobs = append(q.jobs, unit...)
	q.mu.Unlock()
	for i := 0; i < min(len(unit), cap(q.wake)); i++ {
		select {
		case q.wake <- struct{}{}:
		default: // every worker already has a token to wake on
		}
	}
	return nil
}

// take removes what one free worker runs next: the FIFO head and, on
// MasPar, every queued job sharing its cfgKey and its sentence length
// up to maxBatch, in queue order — one gang program, which shares one
// PE layout, serves them all. Jobs of other lengths stay queued for the
// next free worker. On every other backend a shared batch would only
// run parses back to back on one worker while another idles, so the
// worker takes the head alone.
func (q *backendQueue) take(maxBatch int) []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return nil
	}
	head := q.jobs[0]
	if q.backend != core.MasPar {
		q.jobs[0] = nil
		q.jobs = q.jobs[1:]
		return []*job{head}
	}
	batch := []*job{head}
	rest := q.jobs[:0]
	for _, j := range q.jobs[1:] {
		if len(batch) < maxBatch && j.cfgKey == head.cfgKey && len(j.words) == len(head.words) {
			batch = append(batch, j)
		} else {
			rest = append(rest, j)
		}
	}
	clear(q.jobs[len(rest):])
	q.jobs = rest
	return batch
}

// worker runs what it takes from its backend's FIFO until Close, then
// drains what is left.
func (p *Pool) worker(q *backendQueue) {
	defer p.wg.Done()
	for {
		if jobs := q.take(p.maxBatch); jobs != nil {
			p.run(jobs)
		} else if _, open := <-q.wake; !open {
			return
		}
	}
}

// run executes one taken batch with one compiled parser: jobs whose
// deadline already expired in the queue answer 504 without occupying
// the simulator, and the rest run as one gang.
func (p *Pool) run(jobs []*job) {
	p.m.batches.Add(1)
	p.m.batchSize.Observe(float64(len(jobs)))
	if len(jobs) > 1 {
		p.m.coalesced.Add(uint64(len(jobs)))
	}
	live := jobs[:0]
	for _, j := range jobs {
		if j.ctx.Err() != nil {
			wait := time.Since(j.enq)
			p.m.queueWait.Observe(wait.Seconds())
			j.deliver(j.failed(http.StatusGatewayTimeout, "deadline exceeded while queued"), wait, len(jobs))
			continue
		}
		live = append(live, j)
	}
	if len(live) > 0 {
		p.runGang(core.NewParser(live[0].g, live[0].opts...), live, len(jobs))
	}
}

// gangContext derives the context a gang of two or more executes
// under: it is cancelled only when EVERY member's context is done, so
// one request hitting its deadline mid-gang cannot poison the
// simulation the others are still waiting on (its own result is
// dropped at delivery instead). Each member's context.AfterFunc counts
// it down, so nothing waits on a goroutine; the returned stop func
// unregisters the ones that have not fired.
func gangContext(jobs []*job) (context.Context, func()) {
	gctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(jobs)))
	stops := make([]func() bool, len(jobs))
	for i, j := range jobs {
		stops[i] = context.AfterFunc(j.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return gctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// runGang executes live same-length jobs as one gang program — a
// single instruction stream over one packed PE array on MasPar — and
// delivers each member. A solo job is a gang of one. When a gang of two
// or more fails as a whole (every deadline expired, a panic, or an
// error), each live member reruns as a gang of one and gets its own
// outcome rather than the gang's error.
func (p *Pool) runGang(parser *core.Parser, jobs []*job, batchSize int) {
	waits := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		waits[i] = time.Since(j.enq)
		p.m.queueWait.Observe(waits[i].Seconds())
	}
	results, err := p.parse(parser, jobs)
	if err == nil && len(jobs) > 1 {
		p.m.gangRuns.Add(1)
		p.m.gangJobs.Add(uint64(len(jobs)))
	}
	for i, j := range jobs {
		var jr jobResult
		if err != nil && len(jobs) > 1 && j.ctx.Err() == nil {
			solo, soloErr := p.parse(parser, jobs[i:i+1])
			jr = p.answer(j, solo, 0, soloErr)
		} else {
			jr = p.answer(j, results, i, err)
		}
		j.deliver(jr, waits[i], batchSize)
	}
}

// parse runs jobs as one gang with panic isolation, so one poisoned
// request cannot take the worker (or the daemon) down: a solo job
// under its own context, a gang of two or more under gangContext.
// Each parse a member gets counts once in parsecd_parses_total: a gang
// of one whatever its outcome, a larger gang only when it succeeds,
// since a failed one reruns its members.
func (p *Pool) parse(parser *core.Parser, jobs []*job) (results []*core.Result, err error) {
	ctx, stop := jobs[0].ctx, func() {}
	if len(jobs) > 1 {
		ctx, stop = gangContext(jobs)
	}
	defer stop()
	defer func() {
		if r := recover(); r != nil {
			p.m.panics.Add(1)
			err = fmt.Errorf("panic during parse: %v", r)
		}
	}()
	sents := make([]*cdg.Sentence, len(jobs))
	for i, j := range jobs {
		sents[i] = j.sent
	}
	start := time.Now()
	results, err = parser.ParseGangContext(ctx, sents)
	if err == nil || len(jobs) == 1 {
		per := time.Since(start) / time.Duration(len(jobs))
		for range jobs {
			p.m.parses.Add(1)
			p.m.parseLatency.Observe(per.Seconds())
		}
	}
	return results, err
}

// answer classifies member i's outcome of its gang: 504 when its
// deadline has ended, during the parse or while its gang ran, with the
// text of the handler's own timeout answer; 500 for any other error, a
// panic included; else 200 with its parse.
func (p *Pool) answer(j *job, results []*core.Result, i int, err error) jobResult {
	if cerr := j.ctx.Err(); cerr != nil {
		return j.failed(http.StatusGatewayTimeout, cerr.Error())
	}
	if err != nil {
		return j.failed(http.StatusInternalServerError, err.Error())
	}
	p.m.addWork(results[i].Counters)
	return jobResult{status: http.StatusOK, resp: NewResult(j.words, j.gkey, j.backend.String(), results[i], j.maxParses)}
}

// Close drains the pool: no new submits are accepted, queued jobs
// execute, and Close returns when every worker has finished.
// Idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		for _, q := range p.queues {
			close(q.wake)
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
}

// Queued reports how many jobs one backend's FIFO holds (tests).
func (p *Pool) Queued(b core.Backend) int {
	q := p.queues[b]
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}
