package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span linkage travels between the benchmark's own wrappers in these
// request headers; the program under test never reads them.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch on the monotonic clock.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int64  `json:"op"`     // -1 when no benchmark op caused it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run uses the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 when t is nil).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, op int64, parent int32, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans)), Parent: parent, Op: op, Start: start, End: end})
}

type ctxKey struct{}

type spanRef struct {
	op int64
	id int32
}

// wrap times every request through h as a span called name. Its parent
// is the span named in the request's headers, so spans opened by the
// client, the router and the shard nest into one tree per op.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent := int64(-1), int32(-1)
		if v, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
			op = v
		}
		if v, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32); err == nil {
			parent = int32(v)
		}
		id := t.begin(name, op, parent)
		defer t.end(id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{op, id})))
	})
}

// transport stamps the enclosing handler span onto outgoing requests
// (the router's forwards), so the shard's span finds its parent.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if ref, ok := r.Context().Value(ctxKey{}).(spanRef); ok {
			r = r.Clone(r.Context())
			r.Header.Set(opHeader, strconv.FormatInt(ref.op, 10))
			r.Header.Set(spanHeader, strconv.FormatInt(int64(ref.id), 10))
		}
		return base.RoundTrip(r)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns a copy of every finished span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the per-name aggregate of a span set.
type layerTimes struct {
	count map[string]int
	total map[string]int64 // summed span durations, ns
	self  map[string]int64 // summed self times, ns
	// rootSum is the summed duration of root spans; selfSum is the
	// summed self time of every span under a root. They are equal when
	// the stages account for the whole wall clock.
	rootSum, selfSum int64
}

// closurePct is |Σ self − Σ root| as a percentage of Σ root.
func (lt layerTimes) closurePct() float64 {
	if lt.rootSum == 0 {
		return 0
	}
	d := lt.selfSum - lt.rootSum
	if d < 0 {
		d = -d
	}
	return 100 * float64(d) / float64(lt.rootSum)
}

// selfTimes computes each span's self time — its duration minus the part
// of it covered by its children — and sums them by name. Only trees
// rooted at a benchmark op count: a span no op caused (a router's
// replica warm-up) is left out.
func selfTimes(spans []span) layerTimes {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{count: map[string]int{}, total: map[string]int64{}, self: map[string]int64{}}
	var visit func(s span)
	visit = func(s span) {
		kids := children[s.ID]
		self := s.dur() - covered(s, kids)
		lt.count[s.Name]++
		lt.total[s.Name] += s.dur()
		lt.self[s.Name] += self
		lt.selfSum += self
		for _, k := range kids {
			visit(k)
		}
	}
	for _, s := range spans {
		if s.Parent >= 0 || s.Op < 0 {
			continue
		}
		lt.rootSum += s.dur()
		visit(s)
	}
	return lt
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return sum
}

// meanUS is the mean duration (total) or self time of spans called name,
// in microseconds, over n units (spans when n is 0).
func (lt layerTimes) meanUS(name string, self bool, n int) float64 {
	if n == 0 {
		n = lt.count[name]
	}
	if n == 0 {
		return 0
	}
	v := lt.total[name]
	if self {
		v = lt.self[name]
	}
	return float64(v) / float64(n) / 1e3
}
