package benchfleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/router"
	"repro/internal/router/clustertest"
	"repro/internal/server"
)

// HarnessFleet runs the scenario on the in-process clustertest
// harness: real server.New backends on httptest listeners behind a
// real router, no child processes, and membership that only advances
// through AdvanceProbes — so kill-phase scenarios run deterministic
// and sleep-free in tier-1.
type HarnessFleet struct {
	c       *clustertest.Cluster
	names   []string
	scrapes []*httptest.Server // each shard's server without the fault wrapper
	client  *http.Client
}

// NewHarnessFleet boots sc.Shards in-process backends plus a router.
// scfg/rcfg follow clustertest.Boot's conventions (ShardName and
// Shards are filled in; the background prober is disabled).
func NewHarnessFleet(sc *Scenario, scfg server.Config, rcfg router.Config) (*HarnessFleet, error) {
	c, err := clustertest.Boot(sc.Shards, scfg, rcfg)
	if err != nil {
		return nil, err
	}
	f := &HarnessFleet{c: c, client: &http.Client{}}
	for _, sh := range c.Shards {
		f.names = append(f.names, sh.Name)
		f.scrapes = append(f.scrapes, httptest.NewServer(sh.Server.Handler()))
	}
	return f, nil
}

// Cluster exposes the underlying harness (tests reach through it for
// shard-level assertions).
func (f *HarnessFleet) Cluster() *clustertest.Cluster { return f.c }

func (f *HarnessFleet) RouterURL() string    { return f.c.URL }
func (f *HarnessFleet) ShardNames() []string { return append([]string{}, f.names...) }
func (f *HarnessFleet) AdvanceProbes(n int)  { f.c.AdvanceProbes(n) }
func (f *HarnessFleet) Client() *http.Client { return f.client }

// ShardURL reaches shard i's server past the harness's faults. The
// harness's kill drops connections but keeps the server with its cache
// and counters, so a killed shard's scrape shows them frozen and a
// revived one counts on from them — what that server did. A relaunched
// parsecd (ProcFleet) is absent from the scrapes while dead and counts
// from zero.
func (f *HarnessFleet) ShardURL(i int) string { return f.scrapes[i].URL }

func (f *HarnessFleet) Close() error {
	for _, ts := range f.scrapes {
		ts.Close()
	}
	f.c.Close()
	return nil
}

// ApplyFault maps the scenario fault kinds onto the harness's fault
// injectors: kill drops every connection at the socket (what a crashed
// node looks like), delay stalls /v1/* requests until the deadline or
// cancellation.
func (f *HarnessFleet) ApplyFault(fault Fault) error {
	if fault.Shard < 0 || fault.Shard >= len(f.c.Shards) {
		return fmt.Errorf("shard %d out of range", fault.Shard)
	}
	sh := f.c.Shards[fault.Shard]
	switch fault.Kind {
	case FaultKill:
		sh.Kill()
	case FaultRevive:
		sh.Revive()
	case FaultDelay:
		sh.ForceDelay(time.Duration(fault.DelayMS) * time.Millisecond)
	case FaultClearDelay:
		sh.ForceDelay(0)
	default:
		return fmt.Errorf("unknown fault kind %q", fault.Kind)
	}
	return nil
}
