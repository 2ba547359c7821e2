// Package benchfleet is the fleet benchmark orchestrator behind
// cmd/parsecbench: it boots an N-shard parsecd fleet plus a
// parsecrouter (as real local processes, or in-process on the
// clustertest harness), drives a scripted load mix through declarative
// scenario phases with a fault schedule keyed to phase boundaries
// (kill -9, delay injection, revival), scrapes per-shard and router
// /metrics into a window-indexed columnar sample store, and reduces
// the run to a benchjson Report (BENCH_cluster.json) so fleet
// throughput, latency quantiles, hit rate, failovers, hedges, and
// sheds become a per-PR trajectory exactly like BENCH_scan.json.
package benchfleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// Scenario is the declarative description of one fleet benchmark run.
// Scenarios are JSON files (see scenarios/ at the repo root); decoding
// is strict — unknown fields are errors — and every decoded scenario
// is validated before it runs.
type Scenario struct {
	// Name labels the run; it prefixes every result name in the
	// report ("Fleet/<name>/...").
	Name string `json:"name"`
	// Shards is the parsecd fleet size (>= 1).
	Shards int `json:"shards"`
	// Seed makes the request mix deterministic; phase i derives its
	// generator from Seed+i. Zero means seed 1 (never the clock —
	// scenario runs must replay exactly).
	Seed int64 `json:"seed,omitempty"`
	// Backend is the parse backend every request names (default
	// "serial"; lattice phases ignore it — the lattice engine picks
	// its own execution path).
	Backend string `json:"backend,omitempty"`
	// ProbeIntervalMS is the router's health-probe period in
	// real-process mode (default 100ms there). The in-process harness
	// ignores it: probes step deterministically at phase boundaries
	// via each phase's "probes" count.
	ProbeIntervalMS int `json:"probe_interval_ms,omitempty"`
	// Phases run in order; at least one is required.
	Phases []Phase `json:"phases"`
	// Faults fire at the start boundary of their named phase, in
	// schedule order.
	Faults []Fault `json:"faults,omitempty"`
}

// Phase is one load segment of a scenario.
type Phase struct {
	// Name must be unique within the scenario (faults key on it).
	Name string `json:"name"`
	// Requests is the number of requests this phase sends (>= 1).
	Requests int `json:"requests"`
	// Concurrency is the client worker count (>= 1).
	Concurrency int `json:"concurrency"`
	// Mix selects the request generator: "uniform" (fresh sentences
	// every request), "zipf" (skewed reuse over a fixed pool), or
	// "lattice" (English word-lattice decodes).
	Mix string `json:"mix"`
	// ZipfS / ZipfPool tune the "zipf" mix (skew must be > 1).
	ZipfS    float64 `json:"zipf_s,omitempty"`
	ZipfPool int     `json:"zipf_pool,omitempty"`
	// Grammars is the grammar mix for parse requests (default
	// ["demo"]). Lattice mixes always use english.
	Grammars []string `json:"grammars,omitempty"`
	// MaxLen bounds generated sentence length (default 7).
	MaxLen int `json:"max_len,omitempty"`
	// Probes is how many synchronous probe rounds the in-process
	// harness advances at this phase's start boundary, after the
	// phase's faults apply — how a kill phase observes ejection with
	// zero sleeps. Real-process mode ignores it (the router's own
	// prober runs on ProbeIntervalMS).
	Probes int `json:"probes,omitempty"`
}

// Fault kinds.
const (
	FaultKill       = "kill"        // SIGKILL the shard (harness: drop every connection)
	FaultRevive     = "revive"      // restart a killed shard
	FaultDelay      = "delay"       // stall every /v1/* request on the shard by DelayMS
	FaultClearDelay = "clear-delay" // remove an injected delay
)

// Fault is one fault-schedule entry: at the start boundary of Phase,
// apply Kind to shard index Shard.
type Fault struct {
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Phase string `json:"phase"`
	// DelayMS is the injected stall for "delay" faults (> 0).
	DelayMS int `json:"delay_ms,omitempty"`
}

// validMixes and validFaultKinds gate Validate.
var validMixes = map[string]bool{"uniform": true, "zipf": true, "lattice": true}
var validFaultKinds = map[string]bool{
	FaultKill: true, FaultRevive: true, FaultDelay: true, FaultClearDelay: true,
}

// DecodeScenario strictly decodes and validates a scenario document.
func DecodeScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("benchfleet: decode scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("benchfleet: trailing data after scenario object")
	}
	// An empty list decodes like an absent one, so that Encode, which
	// omits both, round-trips the scenario.
	if len(sc.Faults) == 0 {
		sc.Faults = nil
	}
	for i := range sc.Phases {
		if len(sc.Phases[i].Grammars) == 0 {
			sc.Phases[i].Grammars = nil
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Encode renders the scenario back to canonical indented JSON.
func (sc *Scenario) Encode() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// Validate checks the scenario's structural invariants: a named
// scenario with at least one shard; uniquely named, well-formed phases;
// and a fault schedule that references known phases and shards in
// phase order, with revivals/clears only after a matching kill/delay.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("benchfleet: scenario has no name")
	}
	if sc.Shards < 1 {
		return fmt.Errorf("benchfleet: scenario %q: shards must be >= 1 (got %d)", sc.Name, sc.Shards)
	}
	if sc.Seed < 0 {
		return fmt.Errorf("benchfleet: scenario %q: seed must be >= 0", sc.Name)
	}
	if sc.Backend != "" {
		if _, err := core.ParseBackend(sc.Backend); err != nil {
			return fmt.Errorf("benchfleet: scenario %q: %w", sc.Name, err)
		}
	}
	if sc.ProbeIntervalMS < 0 {
		return fmt.Errorf("benchfleet: scenario %q: probe_interval_ms must be >= 0", sc.Name)
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("benchfleet: scenario %q has no phases", sc.Name)
	}
	phaseIdx := make(map[string]int, len(sc.Phases))
	for i, p := range sc.Phases {
		if p.Name == "" {
			return fmt.Errorf("benchfleet: scenario %q: phase %d has no name", sc.Name, i)
		}
		if _, dup := phaseIdx[p.Name]; dup {
			return fmt.Errorf("benchfleet: scenario %q: duplicate phase name %q", sc.Name, p.Name)
		}
		phaseIdx[p.Name] = i
		if p.Requests < 1 {
			return fmt.Errorf("benchfleet: phase %q: requests must be >= 1 (got %d)", p.Name, p.Requests)
		}
		if p.Concurrency < 1 {
			return fmt.Errorf("benchfleet: phase %q: concurrency must be >= 1 (got %d)", p.Name, p.Concurrency)
		}
		if !validMixes[p.Mix] {
			return fmt.Errorf("benchfleet: phase %q: unknown mix %q (want uniform, zipf, or lattice)", p.Name, p.Mix)
		}
		if p.Mix == "zipf" {
			if p.ZipfS <= 1 {
				return fmt.Errorf("benchfleet: phase %q: zipf_s must be > 1 (got %g)", p.Name, p.ZipfS)
			}
			if p.ZipfPool < 1 {
				return fmt.Errorf("benchfleet: phase %q: zipf_pool must be >= 1 (got %d)", p.Name, p.ZipfPool)
			}
		}
		if p.MaxLen < 0 || p.Probes < 0 {
			return fmt.Errorf("benchfleet: phase %q: max_len and probes must be >= 0", p.Name)
		}
	}
	// The fault schedule is keyed to phase boundaries, so it must be
	// written in boundary order — an out-of-order entry is almost
	// always a scenario bug (a revive scheduled before its kill fires).
	lastBoundary := -1
	// killed/delayed track per-shard fault state through the schedule
	// so revive/clear-delay entries must pair with a prior kill/delay.
	killed := make(map[int]bool)
	delayed := make(map[int]bool)
	for i, f := range sc.Faults {
		if !validFaultKinds[f.Kind] {
			return fmt.Errorf("benchfleet: fault %d: unknown kind %q (want kill, revive, delay, or clear-delay)", i, f.Kind)
		}
		if f.Shard < 0 || f.Shard >= sc.Shards {
			return fmt.Errorf("benchfleet: fault %d (%s): shard %d out of range [0,%d)", i, f.Kind, f.Shard, sc.Shards)
		}
		idx, ok := phaseIdx[f.Phase]
		if !ok {
			return fmt.Errorf("benchfleet: fault %d (%s): unknown phase %q", i, f.Kind, f.Phase)
		}
		if idx < lastBoundary {
			return fmt.Errorf("benchfleet: fault %d (%s shard %d): phase %q is scheduled out of phase order", i, f.Kind, f.Shard, f.Phase)
		}
		lastBoundary = idx
		switch f.Kind {
		case FaultKill:
			if killed[f.Shard] {
				return fmt.Errorf("benchfleet: fault %d: shard %d killed twice without a revive", i, f.Shard)
			}
			killed[f.Shard] = true
		case FaultRevive:
			if !killed[f.Shard] {
				return fmt.Errorf("benchfleet: fault %d: revive of shard %d without a prior kill", i, f.Shard)
			}
			killed[f.Shard] = false
		case FaultDelay:
			if f.DelayMS <= 0 {
				return fmt.Errorf("benchfleet: fault %d: delay needs delay_ms > 0", i)
			}
			delayed[f.Shard] = true
		case FaultClearDelay:
			if !delayed[f.Shard] {
				return fmt.Errorf("benchfleet: fault %d: clear-delay of shard %d without a prior delay", i, f.Shard)
			}
			delayed[f.Shard] = false
		}
	}
	// A single-shard fleet with a kill and no revive can never answer
	// the remaining load; catch it at validation instead of mid-run.
	if sc.Shards == 1 && killed[0] {
		return fmt.Errorf("benchfleet: scenario %q kills its only shard and never revives it", sc.Name)
	}
	return nil
}

// FaultsAt returns the schedule entries that fire at the start
// boundary of the named phase, in schedule order.
func (sc *Scenario) FaultsAt(phase string) []Fault {
	var out []Fault
	for _, f := range sc.Faults {
		if f.Phase == phase {
			out = append(out, f)
		}
	}
	return out
}

// withDefaults fills the documented zero-value defaults.
func (p Phase) withDefaults() Phase {
	if len(p.Grammars) == 0 {
		p.Grammars = []string{"demo"}
	}
	if p.MaxLen == 0 {
		p.MaxLen = 7
	}
	return p
}
