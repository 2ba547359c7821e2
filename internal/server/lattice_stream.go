package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/lattice"
)

// The word-synchronous streaming protocol (POST /v1/lattice/stream,
// NDJSON both ways):
//
//	client line 1:  LatticeRequest        — header; Slots may carry the
//	                                        slots known up front
//	client line 2+: LatticeStreamSlot     — one appended lattice slot
//	server lines:   LatticeStreamUpdate   — after the header (if it had
//	                                        slots) and after every
//	                                        appended slot, the updated
//	                                        ranked hypothesis set
//
// When the client closes its body the server emits one last update with
// Final set, repeating the complete result, and ends the response. Each
// update re-decodes the grown lattice; the prefix-snapshot cache makes
// that incremental — every candidate's first n-1 slots were snapshotted
// by the previous update, so only the appended slot is paid for.

// LatticeStreamSlot is one appended slot on the streaming request body.
type LatticeStreamSlot struct {
	Alts []LatticeAlt `json:"alts"`
}

// LatticeStreamUpdate is one NDJSON response line.
type LatticeStreamUpdate struct {
	// Slot is how many slots the decoded lattice had (1-based).
	Slot int `json:"slot"`
	// Final marks the end-of-stream update that repeats the full result.
	Final  bool           `json:"final,omitempty"`
	Result *LatticeResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

func (s *Server) handleLatticeStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		//lint:allow httpresp (every status, this 500 included, is counted by the statusRecorder middleware in Handler)
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// HTTP/1.1 half-closes the request body once response writes begin
	// unless full duplex is explicitly enabled; word-synchronous
	// streaming reads slots and writes updates concurrently.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck // HTTP/2 streams are duplex already
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxBody))
	sc.Buffer(make([]byte, 0, 64<<10), maxBody)

	// Line 1: the request header. Errors here still have a clean HTTP
	// status to use.
	if !sc.Scan() {
		s.writeJSON(w, http.StatusBadRequest, latticeErr(LatticeRequest{}, "missing request header line", false))
		return
	}
	var req LatticeRequest
	if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, latticeErr(req, "malformed header: "+err.Error(), false))
		return
	}
	g, key, status, err := s.lookupGrammar(req.Grammar, req.GrammarSource)
	if err != nil {
		s.writeJSON(w, status, latticeErr(req, err.Error(), false))
		return
	}
	maxPaths := s.latticeMaxPaths(req.MaxPaths)
	timeout := s.requestTimeout(req.TimeoutMS)

	// From here on the response is a 200 NDJSON stream; failures travel
	// as update lines.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()                // release the headers before blocking on the next slot
	enc := json.NewEncoder(w) // compact: one line per update
	emit := func(u LatticeStreamUpdate) bool {
		if err := enc.Encode(u); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	l := lattice.New()
	var last *LatticeResult
	// decode re-runs the prefix engine over the grown lattice and emits
	// one update. Returns false when the stream should end.
	decode := func() bool {
		res := LatticeResult{
			Grammar:     key,
			UtteranceID: req.UtteranceID,
			Slots:       l.Slots(),
			Paths:       l.Paths(),
		}
		jctx, cancel := context.WithTimeout(r.Context(), timeout)
		st := s.latticeViaPrefix(jctx, req, g, key, l, maxPaths, &res)
		cancel()
		if st != http.StatusOK {
			emit(LatticeStreamUpdate{Slot: l.Slots(), Error: res.Error})
			return false
		}
		s.m.latticePaths.Add(uint64(res.Expanded))
		if res.Truncated {
			s.m.latticeTruncations.Add(1)
		}
		last = &res
		return emit(LatticeStreamUpdate{Slot: l.Slots(), Result: &res})
	}

	addSlots := func(slots [][]LatticeAlt) bool {
		for _, slot := range slots {
			if err := addSlot(l, slot); err != nil {
				emit(LatticeStreamUpdate{Slot: l.Slots(), Error: err.Error()})
				return false
			}
			s.m.latticeStreamSlots.Add(1)
		}
		return true
	}

	if len(req.Slots) > 0 {
		if !addSlots(req.Slots) || !decode() {
			return
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var slot LatticeStreamSlot
		if err := json.Unmarshal(line, &slot); err != nil {
			emit(LatticeStreamUpdate{Slot: l.Slots(), Error: "malformed slot line: " + err.Error()})
			return
		}
		if !addSlots([][]LatticeAlt{slot.Alts}) || !decode() {
			return
		}
	}
	if err := sc.Err(); err != nil {
		emit(LatticeStreamUpdate{Slot: l.Slots(), Error: err.Error()})
		return
	}
	// End of input: emit the final, complete result. Every added slot
	// was decoded at once, so the last update already holds it; repeat
	// it rather than re-decoding.
	if l.Slots() == 0 {
		emit(LatticeStreamUpdate{Final: true, Error: "empty lattice: stream at least one slot"})
		return
	}
	s.m.latticeRequests.Add(1)
	emit(LatticeStreamUpdate{Slot: l.Slots(), Final: true, Result: last})
}
