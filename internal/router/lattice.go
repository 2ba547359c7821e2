package router

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	class := classOf(req)
	fr, ok, shedded := r.tryShards(req.Context(), "/v1/lattice", "application/json", replay(body), order, class)
	r.forward(w, fr, ok, shedded, class, func(msg string) any { return latticeError(lreq, msg) }, "")
}

// countingReader counts bytes handed out so the stream proxy knows
// whether any client slot beyond the header line has been consumed —
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

// flushWriter flushes after every write, so a relayed stream delivers
// each update as the shard produces it.
type flushWriter struct{ http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.ResponseWriter.Write(p)
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// handleLatticeStream proxies the word-synchronous NDJSON stream. Only
// the header line is inspected (for the affinity key); the rest of the
// body is piped through untouched. Failover is possible only while no
// client slot has been read: once slots have flowed to a shard,
// replaying them elsewhere could double-decode, so a later failure
// surfaces to the client.
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
	body := func() io.Reader {
		if rest.n.Load() > 0 {
			return nil
		}
		return io.MultiReader(bytes.NewReader(header), rest)
	}
	class := classOf(req)
	fr, ok, shedded := r.tryShards(req.Context(), "/v1/lattice/stream", "application/x-ndjson", body, order, class)
	r.forward(flushWriter{w}, fr, ok, shedded, class, func(msg string) any { return latticeError(lreq, msg) }, "")
}
