package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
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
// up to maxBatch, in queue order. The worker parses them back to back
// with one compiled parser, even while another worker idles (DESIGN.md
// §9 says why MasPar still groups). Jobs of other lengths or
// configurations stay queued for the next free worker. On every other
// backend the worker takes the head alone.
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

// run answers the jobs of one taken batch in queue order with one
// compiled parser. A job whose deadline passed before its turn answers
// 504 without occupying the simulator; every other job parses under
// its own context, after the jobs before it.
func (p *Pool) run(jobs []*job) {
	p.m.batches.Add(1)
	p.m.batchSize.Observe(float64(len(jobs)))
	if len(jobs) > 1 {
		p.m.coalesced.Add(uint64(len(jobs)))
	}
	taken := time.Now()
	parser := core.NewParser(jobs[0].g, jobs[0].opts...)
	for _, j := range jobs {
		wait := taken.Sub(j.enq)
		p.m.queueWait.Observe(wait.Seconds())
		var jr jobResult
		if j.ctx.Err() != nil {
			jr = j.failed(http.StatusGatewayTimeout, "deadline exceeded while queued")
		} else {
			res, err := p.parse(parser, j)
			jr = p.answer(j, res, err)
		}
		j.deliver(jr, wait, len(jobs))
	}
}

// parse runs j's parse with panic isolation, so one poisoned request
// cannot take the worker (or the daemon) down. A parse that returns
// counts once in parsecd_parses_total, whatever its outcome.
func (p *Pool) parse(parser *core.Parser, j *job) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.m.panics.Add(1)
			err = fmt.Errorf("panic during parse: %v", r)
		}
	}()
	start := time.Now()
	res, err = parser.ParseSentenceContext(j.ctx, j.sent)
	p.m.parses.Add(1)
	p.m.parseLatency.Observe(time.Since(start).Seconds())
	return res, err
}

// answer classifies j's outcome: 504 when its deadline has ended,
// during the parse or before it, with the text of the handler's own
// timeout answer; 500 for any other error, a panic included; else 200
// with its parse.
func (p *Pool) answer(j *job, res *core.Result, err error) jobResult {
	if cerr := j.ctx.Err(); cerr != nil {
		return j.failed(http.StatusGatewayTimeout, cerr.Error())
	}
	if err != nil {
		return j.failed(http.StatusInternalServerError, err.Error())
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
