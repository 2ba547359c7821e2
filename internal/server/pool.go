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
	// key matches.
	cfgKey    string
	opts      []core.Option
	maxParses int
	ctx       context.Context
	enq       time.Time // stamped by Submit
	result    chan jobResult
}

// jobResult pairs the wire result with the HTTP status it maps to.
type jobResult struct {
	status int
	resp   ParseResult
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
	for _, b := range Backends() {
		p.queues[b] = &backendQueue{backend: b, wake: make(chan struct{}, workers)}
	}
	return p
}

// start launches the workers of every backend. Close waits only for
// workers started before it.
func (p *Pool) start() {
	for _, b := range Backends() {
		q := p.queues[b]
		p.wg.Add(p.workers)
		for i := 0; i < p.workers; i++ {
			go p.worker(q)
		}
	}
}

// bulkDepth is the queue depth available to bulk-class submissions: a
// quarter of the queue (at least one slot) is reserved for interactive
// traffic, so a bulk ramp saturating the pool sheds before it can
// starve single parses — the same priority order the router applies
// when shedding (see ClassHeader).
func (p *Pool) bulkDepth() int {
	head := p.depth / 4
	if head < 1 {
		head = 1
	}
	d := p.depth - head
	if d < 1 {
		d = 1
	}
	return d
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
	limit := p.depth
	if bulk {
		limit = p.bulkDepth()
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
// MasPar, every queued job sharing its cfgKey up to maxBatch, in queue
// order — one gang program serves them all. On every other backend a
// shared batch would only run parses back to back on one worker while
// another idles, so the worker takes the head alone.
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
		if len(batch) < maxBatch && j.cfgKey == head.cfgKey {
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

// run executes one taken batch with one compiled parser, jobs in queue
// order. Live same-length MasPar jobs run as ONE gang program — a
// single instruction stream over one packed PE array — instead of
// sequential solo simulations.
func (p *Pool) run(jobs []*job) {
	p.m.batches.Add(1)
	p.m.batchSize.Observe(float64(len(jobs)))
	parser := core.NewParser(jobs[0].g, jobs[0].opts...)
	if len(jobs) == 1 {
		p.runJob(parser, jobs[0], 1)
		return
	}
	p.m.coalesced.Add(uint64(len(jobs)))
	// Partition: jobs whose deadline already expired in the queue
	// answer 504 without occupying the simulator; the rest gang up by
	// sentence length (a gang shares one PE layout).
	var groups [][]*job
	index := make(map[int]int)
	for _, j := range jobs {
		if j.ctx.Err() != nil {
			p.deliverQueueExpired(j, len(jobs))
			continue
		}
		n := len(j.words)
		gi, ok := index[n]
		if !ok {
			gi = len(groups)
			index[n] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], j)
	}
	for _, g := range groups {
		if len(g) == 1 {
			p.runJob(parser, g[0], len(jobs))
			continue
		}
		p.runGang(parser, g, len(jobs))
	}
}

// deliverQueueExpired answers a job whose deadline passed while it sat
// in the queue (the handler has already returned 504; the buffered
// result channel absorbs the late delivery).
func (p *Pool) deliverQueueExpired(j *job, batchSize int) {
	wait := time.Since(j.enq)
	p.m.queueWait.Observe(wait.Seconds())
	jr := jobResult{
		status: http.StatusGatewayTimeout,
		resp: ParseResult{
			Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
			TimedOut: true, Error: "deadline exceeded while queued",
		},
	}
	jr.resp.QueueTimeUS = durationUS(wait)
	jr.resp.BatchSize = batchSize
	j.result <- jr
}

// gangContext derives the context a ganged run executes under: it is
// cancelled only when EVERY member's context is done, so one request
// hitting its deadline mid-gang cannot poison the simulation the
// others are still waiting on (its own result is dropped at delivery
// instead). The returned stop func releases the watcher goroutines.
func gangContext(jobs []*job) (context.Context, func()) {
	gctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	var remaining atomic.Int64
	remaining.Store(int64(len(jobs)))
	for _, j := range jobs {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if remaining.Add(-1) == 0 {
					cancel()
				}
			case <-stop:
			}
		}(j.ctx.Done())
	}
	return gctx, func() {
		close(stop)
		cancel()
	}
}

// runGang executes ≥2 same-length jobs as one gang program with panic
// isolation. A panic or a whole-gang error falls back to solo runs per
// job (which classify their own errors); on success each member is
// delivered individually, and a member whose deadline expired while
// the gang was running gets a 504 without disturbing the rest.
func (p *Pool) runGang(parser *core.Parser, jobs []*job, batchSize int) {
	waits := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		waits[i] = time.Since(j.enq)
		p.m.queueWait.Observe(waits[i].Seconds())
	}
	sents := make([]*cdg.Sentence, len(jobs))
	for i, j := range jobs {
		sents[i] = j.sent
	}
	gctx, stop := gangContext(jobs)
	results, err := func() (res []*core.Result, err error) {
		defer stop()
		defer func() {
			if r := recover(); r != nil {
				p.m.panics.Add(1)
				err = fmt.Errorf("panic during ganged parse: %v", r)
			}
		}()
		start := time.Now()
		res, err = parser.ParseGangContext(gctx, sents)
		if err == nil {
			per := time.Since(start) / time.Duration(len(jobs))
			for range jobs {
				p.m.parses.Add(1)
				p.m.parseLatency.Observe(per.Seconds())
			}
		}
		return res, err
	}()
	if err != nil {
		// Whole-gang failure (every deadline expired, or a panic): each
		// job runs solo, classifying its own outcome — a live member
		// still gets its parse rather than inheriting the gang's error.
		for i, j := range jobs {
			jr := p.executeOrExpired(parser, j)
			jr.resp.QueueTimeUS = durationUS(waits[i])
			jr.resp.BatchSize = batchSize
			j.result <- jr
		}
		return
	}
	p.m.gangRuns.Add(1)
	p.m.gangJobs.Add(uint64(len(jobs)))
	for i, j := range jobs {
		var jr jobResult
		if cerr := j.ctx.Err(); cerr != nil {
			// Expired while the gang ran: the handler already answered
			// 504; drop this member's result, keep the others'.
			jr = jobResult{
				status: http.StatusGatewayTimeout,
				resp: ParseResult{
					Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
					TimedOut: true, Error: "deadline exceeded during batched parse",
				},
			}
		} else {
			p.m.addWork(results[i].Counters)
			jr = jobResult{status: http.StatusOK, resp: NewResult(j.words, j.gkey, j.backend.String(), results[i], j.maxParses)}
		}
		jr.resp.QueueTimeUS = durationUS(waits[i])
		jr.resp.BatchSize = batchSize
		j.result <- jr
	}
}

// executeOrExpired is the solo fallback of a failed gang: an expired
// job maps to 504 without parsing, a live one runs normally.
func (p *Pool) executeOrExpired(parser *core.Parser, j *job) jobResult {
	if j.ctx.Err() != nil {
		return jobResult{
			status: http.StatusGatewayTimeout,
			resp: ParseResult{
				Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
				TimedOut: true, Error: "deadline exceeded during batched parse",
			},
		}
	}
	return p.execute(parser, j)
}

// runJob executes one job with panic isolation and delivers its result.
func (p *Pool) runJob(parser *core.Parser, j *job, batchSize int) {
	wait := time.Since(j.enq)
	p.m.queueWait.Observe(wait.Seconds())
	var jr jobResult
	if err := j.ctx.Err(); err != nil {
		// The deadline expired while the job sat in the queue; the
		// handler has already answered 504. Skip the parse entirely.
		jr = jobResult{
			status: http.StatusGatewayTimeout,
			resp: ParseResult{
				Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
				TimedOut: true, Error: "deadline exceeded while queued",
			},
		}
	} else {
		jr = p.execute(parser, j)
	}
	jr.resp.QueueTimeUS = durationUS(wait)
	jr.resp.BatchSize = batchSize
	j.result <- jr
}

// execute runs the parse, converting panics to 500s so one poisoned
// request cannot take the worker (or the daemon) down.
func (p *Pool) execute(parser *core.Parser, j *job) (jr jobResult) {
	defer func() {
		if r := recover(); r != nil {
			p.m.panics.Add(1)
			jr = jobResult{
				status: http.StatusInternalServerError,
				resp: ParseResult{
					Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
					Error: fmt.Sprintf("panic during parse: %v", r),
				},
			}
		}
	}()
	start := time.Now()
	res, err := parser.ParseSentenceContext(j.ctx, j.sent)
	p.m.parses.Add(1)
	p.m.parseLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return jobResult{
				status: http.StatusGatewayTimeout,
				resp: ParseResult{
					Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
					TimedOut: true, Error: err.Error(),
				},
			}
		}
		return jobResult{
			status: http.StatusInternalServerError,
			resp: ParseResult{
				Sentence: j.words, Grammar: j.gkey, Backend: j.backend.String(),
				Error: err.Error(),
			},
		}
	}
	p.m.addWork(res.Counters)
	return jobResult{status: http.StatusOK, resp: NewResult(j.words, j.gkey, j.backend.String(), res, j.maxParses)}
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
