package benchfleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ProcConfig tunes a real-process fleet.
type ProcConfig struct {
	// BinDir holds the parsecd and parsecrouter binaries (make
	// bench-cluster builds them first).
	BinDir string
	// LogDir receives each child's stderr log (default: discarded).
	LogDir string
	// StartTimeout bounds each process's /healthz wait (default 15s).
	StartTimeout time.Duration
	// RouterArgs / ServerArgs append extra flags to the respective
	// command lines (e.g. -max-inflight to cap the router's forwards).
	RouterArgs []string
	ServerArgs []string
}

// ProcFleet is sc.Shards real parsecd processes plus one parsecrouter,
// all local, faults applied with real signals: FaultKill is SIGKILL —
// the literal kill -9 mid-run — and FaultRevive re-launches the shard
// on its original port so the router's probe loop re-admits it.
type ProcFleet struct {
	cfg    ProcConfig
	sc     *Scenario
	client *http.Client

	shards    []*procShard
	router    *exec.Cmd
	routerURL string
}

type procShard struct {
	name string
	port int
	url  string
	cmd  *exec.Cmd
}

// NewProcFleet boots the fleet and blocks until every shard and the
// router answer /healthz.
func NewProcFleet(sc *Scenario, cfg ProcConfig) (*ProcFleet, error) {
	if cfg.StartTimeout <= 0 {
		cfg.StartTimeout = 15 * time.Second
	}
	f := &ProcFleet{cfg: cfg, sc: sc, client: &http.Client{Timeout: 2 * time.Minute}}
	ok := false
	defer func() {
		if !ok {
			f.Close() //nolint:errcheck
		}
	}()

	ports, err := freePorts(sc.Shards + 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.Shards; i++ {
		sh := &procShard{
			name: fmt.Sprintf("shard%d", i),
			port: ports[i],
			url:  fmt.Sprintf("http://127.0.0.1:%d", ports[i]),
		}
		f.shards = append(f.shards, sh)
		if err := f.launchShard(sh); err != nil {
			return nil, err
		}
	}
	probeMS := f.sc.ProbeIntervalMS
	if probeMS == 0 {
		probeMS = 100
	}
	rport := ports[sc.Shards]
	f.routerURL = fmt.Sprintf("http://127.0.0.1:%d", rport)
	var urls []string
	for _, sh := range f.shards {
		urls = append(urls, sh.url)
	}
	// The router cache is off, as on the in-process fleet: the scenarios
	// measure shard faults. RouterArgs come last and may turn it on.
	rargs := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", rport),
		"-shards", strings.Join(urls, ","),
		"-probe-interval", fmt.Sprintf("%dms", probeMS),
		"-cache-entries", "-1",
	}, cfg.RouterArgs...)
	cmd, err := f.launch("parsecrouter", "router", rargs)
	if err != nil {
		return nil, err
	}
	f.router = cmd
	if err := f.waitHealthy(f.routerURL); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	ok = true
	return f, nil
}

func (f *ProcFleet) launchShard(sh *procShard) error {
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", sh.port),
		"-shard-name", sh.name,
		"-debug-faults",
	}, f.cfg.ServerArgs...)
	cmd, err := f.launch("parsecd", sh.name, args)
	if err != nil {
		return err
	}
	sh.cmd = cmd
	if err := f.waitHealthy(sh.url); err != nil {
		return fmt.Errorf("%s: %w", sh.name, err)
	}
	return nil
}

// launch starts one child with stdout and stderr appended to
// LogDir/<label>.log. The child inherits its own descriptor of the
// log, so this process closes its copy once the child has started:
// the fleet holds no descriptor into LogDir, whether the child is
// later killed, revived or closed.
func (f *ProcFleet) launch(bin, label string, args []string) (*exec.Cmd, error) {
	cmd := exec.Command(filepath.Join(f.cfg.BinDir, bin), args...)
	if f.cfg.LogDir != "" {
		logf, err := os.OpenFile(filepath.Join(f.cfg.LogDir, label+".log"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer logf.Close()
		cmd.Stderr, cmd.Stdout = logf, logf
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", label, err)
	}
	return cmd, nil
}

// waitHealthy polls /healthz until it answers (any status — a degraded
// router still serves) or the start timeout lapses.
func (f *ProcFleet) waitHealthy(base string) error {
	deadline := time.Now().Add(f.cfg.StartTimeout)
	for {
		resp, err := f.client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode < 500 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no healthy /healthz on %s within %v", base, f.cfg.StartTimeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (f *ProcFleet) RouterURL() string { return f.routerURL }

func (f *ProcFleet) ShardNames() []string {
	var names []string
	for _, sh := range f.shards {
		names = append(names, sh.name)
	}
	return names
}

func (f *ProcFleet) ShardURL(i int) string { return f.shards[i].url }

// AdvanceProbes waits n probe periods of wall clock (plus one for
// scheduling slack) so the free-running prober observes at least n
// rounds — the real-time analogue of the harness's synchronous
// stepping, which keeps a scenario's "probes" knob meaningful in both
// modes (a kill phase with probes >= EjectAfter sees the ejection
// before its load starts).
func (f *ProcFleet) AdvanceProbes(n int) {
	if n <= 0 {
		return
	}
	probeMS := f.sc.ProbeIntervalMS
	if probeMS == 0 {
		probeMS = 100
	}
	time.Sleep(time.Duration(n+1) * time.Duration(probeMS) * time.Millisecond)
}

func (f *ProcFleet) Client() *http.Client { return f.client }

// ApplyFault: kill is a real SIGKILL; revive re-launches the binary on
// the same port; delay posts to the shard's -debug-faults endpoint.
func (f *ProcFleet) ApplyFault(fault Fault) error {
	if fault.Shard < 0 || fault.Shard >= len(f.shards) {
		return fmt.Errorf("shard %d out of range", fault.Shard)
	}
	sh := f.shards[fault.Shard]
	switch fault.Kind {
	case FaultKill:
		if sh.cmd == nil || sh.cmd.Process == nil {
			return fmt.Errorf("%s has no process to kill", sh.name)
		}
		if err := sh.cmd.Process.Kill(); err != nil {
			return err
		}
		sh.cmd.Wait() //nolint:errcheck // reap; exit status is the kill
		sh.cmd = nil
		return nil
	case FaultRevive:
		if sh.cmd != nil {
			return fmt.Errorf("%s is already running", sh.name)
		}
		return f.launchShard(sh)
	case FaultDelay:
		return f.postFault(sh, fault.DelayMS)
	case FaultClearDelay:
		return f.postFault(sh, 0)
	default:
		return fmt.Errorf("unknown fault kind %q", fault.Kind)
	}
}

func (f *ProcFleet) postFault(sh *procShard, delayMS int) error {
	body, err := json.Marshal(map[string]int{"delay_ms": delayMS})
	if err != nil {
		return err
	}
	resp, err := f.client.Post(sh.url+"/debug/fault", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s /debug/fault: status %d", sh.name, resp.StatusCode)
	}
	return nil
}

// Close SIGTERMs every live child and reaps it, escalating to SIGKILL
// after a drain grace.
func (f *ProcFleet) Close() error {
	var procs []*exec.Cmd
	if f.router != nil {
		procs = append(procs, f.router)
	}
	for _, sh := range f.shards {
		if sh.cmd != nil {
			procs = append(procs, sh.cmd)
		}
	}
	for _, cmd := range procs {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	}
	for _, cmd := range procs {
		done := make(chan struct{})
		go func(c *exec.Cmd) { c.Wait(); close(done) }(cmd) //nolint:errcheck
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			<-done
		}
	}
	f.router, f.shards = nil, nil
	return nil
}

// freePorts reserves n distinct ephemeral ports by binding and
// releasing listeners. There is an inherent race before the child
// binds, but local runs re-acquire the same port reliably and the
// launch fails loudly if not.
func freePorts(n int) ([]int, error) {
	var ports []int
	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		_, portStr, err := net.SplitHostPort(l.Addr().String())
		if err != nil {
			return nil, err
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, err
		}
		ports = append(ports, port)
	}
	return ports, nil
}
