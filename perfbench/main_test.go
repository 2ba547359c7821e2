package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

var workloadNames = []string{"parse-cold", "parse-zipf-fleet", "maspar-gang", "lattice-stream"}

var endToEnd = []string{"ops_per_s", "p50_ms", "tail_ms", "setup_s", "alloc_kb_per_op", "live_heap_mb"}

// lastLine decodes the JSON object on the last line of out.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return m
}

// TestTinyRuns runs every workload at a tiny size, plain and traced,
// and checks the result line's shape: the keys, a correct verdict, no
// failures, and every metric with a unit.
func TestTinyRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(config{workload: name, seed: 7, seconds: 0.3, trace: trace, out: t.TempDir(), tiny: true}, &out)
				if err != nil {
					t.Fatal(err)
				}
				m := lastLine(t, out.String())
				keys := []string{}
				for k := range m {
					keys = append(keys, k)
				}
				if len(keys) != 4 || m["correct"] != true || m["failed"] != 0.0 || m["attempted"].(float64) < 1 {
					t.Fatalf("result line %v", m)
				}
				if !res.Correct {
					t.Fatal("run reported incorrect answers")
				}
				metrics := m["metrics"].(map[string]any)
				if !trace {
					if len(metrics) != len(endToEnd) {
						t.Errorf("got %d end-to-end metrics, want %d", len(metrics), len(endToEnd))
					}
					for _, k := range endToEnd {
						v, ok := metrics[k].(map[string]any)
						if !ok || v["unit"] == "" || v["value"].(float64) <= 0 {
							t.Errorf("metric %s = %v", k, metrics[k])
						}
					}
					return
				}
				for _, k := range []string{"cdg.constraint_checks", "cn.filter_iters", "maspar.cycles", "core.solo_ms_per_sent", "latticeserve.decode_ms", "server.handler_us", "http.client_us"} {
					v, ok := metrics[k].(map[string]any)
					if !ok || v["value"].(float64) <= 0 {
						t.Errorf("per-layer metric %s = %v", k, metrics[k])
					}
				}
				if name == "parse-zipf-fleet" {
					if v := metrics["router.self_us"].(map[string]any)["value"].(float64); v <= 0 {
						t.Errorf("router.self_us = %v on the fleet", v)
					}
				}
			})
		}
	}
}

// TestSeedFixesInputs: one seed yields the same calls, another seed
// different ones.
func TestSeedFixesInputs(t *testing.T) {
	a, b, c := newParseCold(3, 1), newParseCold(3, 1), newParseCold(4, 1)
	for i := 0; i < 50; i++ {
		if !reflect.DeepEqual(a.sents.get(i).words, b.sents.get(i).words) {
			t.Fatalf("sentence %d differs between two tables of one seed", i)
		}
	}
	same := 0
	for i := 0; i < 50; i++ {
		if reflect.DeepEqual(a.sents.get(i).words, c.sents.get(i).words) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("seeds 3 and 4 drew the same sentences")
	}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		k := a.sents.get(i).key()
		if seen[k] {
			t.Fatalf("parse-cold repeats %q", k)
		}
		seen[k] = true
	}
	z1, z2 := newZipf(9, fleetPool, 1.1), newZipf(9, fleetPool, 1.1)
	top := 0
	for i := 0; i < 5000; i++ {
		if z1.draw(i) != z2.draw(i) {
			t.Fatalf("zipf draw %d differs", i)
		}
		if z1.draw(i) == 0 {
			top++
		}
	}
	// Rank 0 carries about 1/H(2000, 1.1) ≈ 17% of Zipf(1.1) draws.
	if top < 600 || top > 1100 {
		t.Errorf("rank 0 drawn %d times in 5000", top)
	}
	g := newMasparGang(5)
	for i := 0; i < 20; i++ {
		batch := g.batch(i)
		keys := map[string]bool{}
		for _, s := range batch {
			if len(s) != gangWords {
				t.Fatalf("batch %d has a %d-word sentence", i, len(s))
			}
			keys[strings.Join(s, " ")] = true
		}
		if len(keys) != gangBatch {
			t.Fatalf("batch %d has %d distinct sentences", i, len(keys))
		}
	}
}

// TestSelfTimes: self times of a nested tree add up to its root, and
// overlapping siblings show up as closure error.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "client", ID: 0, Parent: -1, Op: 1, Start: 0, End: 100},
		{Name: "router", ID: 1, Parent: 0, Op: 1, Start: 10, End: 90},
		{Name: "server", ID: 2, Parent: 1, Op: 1, Start: 20, End: 80},
		{Name: "server.engine", ID: 3, Parent: 2, Op: 1, Start: 30, End: 70},
		{Name: "server", ID: 4, Parent: -1, Op: -1, Start: 0, End: 500}, // caused by no op
	}
	lt := selfTimes(spans)
	want := map[string]int64{"client": 20, "router": 20, "server": 20, "server.engine": 40}
	for k, v := range want {
		if lt.self[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, lt.self[k], v)
		}
	}
	if lt.closurePct() != 0 || lt.rootSum != 100 {
		t.Errorf("closure %.3f%% over roots %d", lt.closurePct(), lt.rootSum)
	}
	// A hedge: two overlapping shard spans under one router span.
	spans = append(spans[:4], span{Name: "server", ID: 5, Parent: 1, Op: 1, Start: 60, End: 85})
	lt = selfTimes(spans)
	if lt.self["router"] != 80-65 || lt.closurePct() == 0 {
		t.Errorf("router self %d, closure %.3f%%", lt.self["router"], lt.closurePct())
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if p := percentileMS(ds, 0.99); p != 990 {
		t.Errorf("p99 = %v, want 990", p)
	}
	if p := percentileMS(ds, 0.5); p != 500 {
		t.Errorf("p50 = %v, want 500", p)
	}
}

// TestExactGuard: a second run of one build and seed that counts
// differently is flagged.
func TestExactGuard(t *testing.T) {
	cfg := config{workload: "parse-cold", seed: 1, out: t.TempDir()}
	if bad, err := checkExact(cfg, map[string]uint64{"cn.filter_iters": 5}); err != nil || len(bad) != 0 {
		t.Fatalf("first record: %v %v", bad, err)
	}
	if bad, err := checkExact(cfg, map[string]uint64{"cn.filter_iters": 5}); err != nil || len(bad) != 0 {
		t.Fatalf("repeat: %v %v", bad, err)
	}
	if bad, err := checkExact(cfg, map[string]uint64{"cn.filter_iters": 6}); err != nil || len(bad) != 1 {
		t.Fatalf("changed count not flagged: %v %v", bad, err)
	}
}
