package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
)

// caller is one closed-loop client's view of the system: it sends a
// request and waits for the whole reply before its next one.
type caller struct {
	hc  *http.Client
	url string
	tr  *tracer
}

// outcome is what one call did: how many ops it carried, how many of
// them failed, one latency sample per call (per slot for streams), and
// the answers the oracle should check.
type outcome struct {
	op     int64
	ops    int
	failed int
	lat    []time.Duration
	got    []verdict
	// queue and engine are the server-reported waiting and parse times
	// of the call (traced runs attach them under the shard's span).
	queue, engine time.Duration
	why           string // the first failure's cause
	// done is when the call completed, from the start of its phase.
	done time.Duration
}

// postJSON sends body to path and reads the whole reply. The latency
// runs from just before the request is written to the last body byte.
func (c *caller) postJSON(ctx context.Context, op int64, path string, body any, out any) (int, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := c.tr.begin("client", op, -1)
	if c.tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(int64(id), 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(id)
		return 0, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	c.tr.end(id)
	if err != nil {
		return resp.StatusCode, lat, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, out)
	}
	return resp.StatusCode, lat, err
}

// stream drives one utterance over POST /v1/lattice/stream: the header
// line, then one slot line at a time, each timed until its update line
// arrives; closing the body asks for the final update.
func (c *caller) stream(ctx context.Context, op int64, header server.LatticeRequest, slots [][]server.LatticeAlt) (lat []time.Duration, final *server.LatticeResult, failed int, why string) {
	id := c.tr.begin("client", op, -1)
	defer c.tr.end(id)
	fail := func(done int, err error) ([]time.Duration, *server.LatticeResult, int, string) {
		return lat, nil, len(slots) - done, fmt.Sprintf("slot %d: %v", done+1, err)
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/lattice/stream", pr)
	if err != nil {
		return fail(0, err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if c.tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(int64(id), 10))
	}
	send := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = pw.Write(append(b, '\n'))
		return err
	}
	// The server answers the headers only after reading the header line,
	// so the round trip runs beside the writes.
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := c.hc.Do(req)
		replies <- reply{resp, err}
	}()
	if err := send(header); err != nil {
		pw.CloseWithError(err)
		<-replies
		return fail(0, err)
	}
	rep := <-replies
	if rep.err != nil {
		return fail(0, rep.err)
	}
	defer rep.resp.Body.Close()
	if rep.resp.StatusCode != http.StatusOK {
		return fail(0, fmt.Errorf("status %d", rep.resp.StatusCode))
	}
	sc := bufio.NewScanner(rep.resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	next := func() (server.LatticeStreamUpdate, error) {
		var u server.LatticeStreamUpdate
		if !sc.Scan() {
			return u, fmt.Errorf("stream ended early: %v", sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return u, err
		}
		if u.Error != "" {
			return u, fmt.Errorf("update error: %s", u.Error)
		}
		return u, nil
	}
	for i, slot := range slots {
		start := time.Now()
		if err := send(server.LatticeStreamSlot{Alts: slot}); err != nil {
			return fail(i, err)
		}
		if _, err := next(); err != nil {
			return fail(i, err)
		}
		lat = append(lat, time.Since(start))
	}
	pw.Close()
	u, err := next()
	if err != nil || !u.Final || u.Result == nil {
		return lat, nil, 1, fmt.Sprintf("final update: %v", err)
	}
	io.Copy(io.Discard, rep.resp.Body) //nolint:errcheck // reading to EOF only ends the exchange
	return lat, u.Result, 0, ""
}
