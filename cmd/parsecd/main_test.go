package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDaemonServesAndDrainsOnSIGTERM boots the real daemon on an
// ephemeral port, serves traffic, then delivers an actual SIGTERM and
// checks that in-flight requests are answered before run returns.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	var logbuf bytes.Buffer
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		// -cache-entries -1: the identical in-flight requests below must
		// each reach the pool; the result cache would singleflight them
		// into one parse and the drain accounting below counts all 4.
		// -debug-faults lets the test stall them in flight.
		runErr <- run([]string{"-addr", "127.0.0.1:0", "-debug-faults", "-max-batch", "64", "-cache-entries", "-1"}, &logbuf, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never came up")
	}

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Stall every /v1/* request by 150ms, so the requests launched
	// below are still in flight when the signal lands.
	resp, err = http.Post(base+"/debug/fault", "application/json", strings.NewReader(`{"delay_ms":150}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/fault: %d", resp.StatusCode)
	}

	const n = 4
	statuses := make(chan int, n)
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		go func() {
			body, _ := json.Marshal(map[string]any{"text": "the program runs", "backend": "serial"})
			started.Done()
			resp, err := http.Post(base+"/v1/parse", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	started.Wait()
	time.Sleep(75 * time.Millisecond) // let the POSTs connect and enqueue

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain and exit after SIGTERM")
	}
	for i := 0; i < n; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("in-flight request %d: status %d", i, status)
		}
	}
	logs := logbuf.String()
	for _, want := range []string{"listening on", "draining", "drained:"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
	if !strings.Contains(logs, fmt.Sprintf("parses=%d", n)) {
		t.Errorf("drain log should account for all %d parses:\n%s", n, logs)
	}
}
