package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// TestRouterDaemonServesAndDrainsOnSIGTERM boots two real in-process
// parsecd backends and the router daemon on an ephemeral port, routes
// traffic through it, then delivers an actual SIGTERM and checks the
// drain log accounts for the shards.
func TestRouterDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	var backends []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{ShardName: "shard" + string(rune('0'+i))})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		backends = append(backends, ts.URL)
	}

	var logbuf bytes.Buffer
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-shards", strings.Join(backends, ","),
			"-probe-interval", "50ms",
		}, &logbuf, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(5 * time.Second):
		t.Fatal("router never came up")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{"text": "the program runs", "backend": "serial"})
	resp, err = http.Post(base+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parse via router: %d: %s", resp.StatusCode, data)
	}
	if shard := resp.Header.Get(server.ShardHeader); !strings.HasPrefix(shard, "shard") {
		t.Errorf("response not attributed to a shard: %q", shard)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain and exit after SIGTERM")
	}
	logs := logbuf.String()
	for _, want := range []string{"routing on", "draining", "drained: requests=1"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
}

// TestRouterRequiresShards checks the flag validation path.
func TestRouterRequiresShards(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0"}, io.Discard, nil); err == nil {
		t.Fatal("run without -shards should fail")
	}
}

// TestRouterRefusesDeletedPolicyFlags: the hot-key replication and
// hedging flags are gone, so a command line that still passes one fails
// at start-up instead of running without the policy it asked for. No
// -shards is given, so a router that accepted the flag would fail fast
// on the missing fleet instead of serving.
func TestRouterRefusesDeletedPolicyFlags(t *testing.T) {
	for _, flag := range []string{"-replicate-top=4", "-replica-factor=2", "-hot-share=0.1", "-hot-window=64", "-hedge", "-hedge-delay=10ms"} {
		err := run([]string{"-addr", "127.0.0.1:0", flag}, io.Discard, nil)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err %v, want an undefined-flag error", flag, err)
		}
	}
}
