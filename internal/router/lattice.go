package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/server"
)

// Lattice forwarding. Placement hashes server.LatticeAffinityKey —
// (grammar, utterance id) when the client names the utterance — so
// every decode of one utterance lands on the shard that holds its
// prefix snapshots; a different placement would still be correct but
// would rebuild the snapshots from scratch on every hop.

func latticeError(req server.LatticeRequest, msg string) server.LatticeResult {
	return server.LatticeResult{
		Grammar:     req.Grammar,
		UtteranceID: req.UtteranceID,
		Slots:       len(req.Slots),
		Error:       msg,
	}
}

func (r *Router) handleLattice(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err != nil {
		r.writeJSON(w, http.StatusBadRequest, latticeError(server.LatticeRequest{}, "read request: "+err.Error()))
		return
	}
	var lreq server.LatticeRequest
	if err := json.Unmarshal(body, &lreq); err != nil {
		r.writeJSON(w, http.StatusBadRequest, latticeError(lreq, "malformed request: "+err.Error()))
		return
	}
	order := RankShards(r.fleet.eligible(), server.LatticeAffinityKey(lreq))
	if len(order) == 0 {
		r.m.countEmptyFleet()
		r.writeJSON(w, http.StatusServiceUnavailable, latticeError(lreq, "no live shards"))
		return
	}
	fr, ok, shedded := r.tryShards(req.Context(), "/v1/lattice", "application/json", body, order, classOf(req))
	if shedded {
		r.m.countShed(classOf(req))
		w.Header().Set("Retry-After", "1")
		r.writeJSON(w, http.StatusTooManyRequests, latticeError(lreq, "shard at capacity; retry later"))
		return
	}
	if !ok {
		r.writeJSON(w, http.StatusServiceUnavailable,
			latticeError(lreq, fmt.Sprintf("all candidate shards failed: %v", fr.err)))
		return
	}
	r.relay(w, fr)
}

// countingReader counts bytes handed out so the stream proxy knows
// whether any client body beyond the header line has been consumed —
// the point past which failover would replay a partial stream.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// handleLatticeStream proxies the word-synchronous NDJSON stream. Only
// the header line is inspected (for the affinity key); the rest of the
// body is piped through untouched. Failover is possible only while no
// post-header body bytes have been consumed: once slots have flowed to
// a shard, replaying them elsewhere could double-decode, so later
// failures surface to the client.
func (r *Router) handleLatticeStream(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Proxying a duplex stream: keep reading the client's slots while
	// relaying the shard's updates.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck // HTTP/2 streams are duplex already
	br := bufio.NewReaderSize(http.MaxBytesReader(w, req.Body, maxBody), 64<<10)
	header, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		r.writeJSON(w, http.StatusBadRequest, latticeError(server.LatticeRequest{}, "read header line: "+err.Error()))
		return
	}
	if len(bytes.TrimSpace(header)) == 0 {
		r.writeJSON(w, http.StatusBadRequest, latticeError(server.LatticeRequest{}, "missing request header line"))
		return
	}
	var lreq server.LatticeRequest
	if err := json.Unmarshal(header, &lreq); err != nil {
		r.writeJSON(w, http.StatusBadRequest, latticeError(lreq, "malformed header: "+err.Error()))
		return
	}
	order := RankShards(r.fleet.eligible(), server.LatticeAffinityKey(lreq))
	if len(order) == 0 {
		r.m.countEmptyFleet()
		r.writeJSON(w, http.StatusServiceUnavailable, latticeError(lreq, "no live shards"))
		return
	}

	rest := &countingReader{r: br}
	attempts := r.cfg.Retries + 1
	if attempts > len(order) {
		attempts = len(order)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if req.Context().Err() != nil {
			break
		}
		if i > 0 && rest.n.Load() > 0 {
			// A previous attempt already consumed streamed slots; they
			// cannot be replayed.
			break
		}
		shard := order[i]
		if i > 0 {
			r.m.countFailover()
		}
		// Streams are admission-checked at setup and then released: a
		// stream can stay open for minutes and must not pin a forward
		// slot against the per-shard cap once admitted.
		if !r.admit.acquire(shard, classInteractive) {
			r.m.countShed(classInteractive)
			w.Header().Set("Retry-After", "1")
			r.writeJSON(w, http.StatusTooManyRequests, latticeError(lreq, "shard at capacity; retry later"))
			return
		}
		freq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
			shard+"/v1/lattice/stream",
			io.MultiReader(bytes.NewReader(header), rest))
		if err != nil {
			r.admit.release(shard)
			r.writeJSON(w, http.StatusServiceUnavailable, latticeError(lreq, err.Error()))
			return
		}
		freq.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := r.client.Do(freq)
		r.admit.release(shard)
		if err != nil {
			r.m.countError(shard)
			lastErr = err
			continue
		}
		if retryable(resp.StatusCode) && i+1 < attempts && rest.n.Load() == 0 {
			r.m.countError(shard)
			drain(resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s: status %d", shard, resp.StatusCode)
			continue
		}
		r.m.countServed(shard)
		r.relayStream(w, resp, shard)
		return
	}
	r.writeJSON(w, http.StatusServiceUnavailable,
		latticeError(lreq, fmt.Sprintf("all candidate shards failed: %v", lastErr)))
}

// relayStream pipes a shard's NDJSON response to the client, flushing
// after every chunk so updates arrive word-synchronously.
func (r *Router) relayStream(w http.ResponseWriter, resp *http.Response, shard string) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if s := resp.Header.Get(server.ShardHeader); s != "" {
		shard = s
	}
	w.Header().Set(server.ShardHeader, shard)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
