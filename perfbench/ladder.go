package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/latticeserve"
	"repro/internal/metrics"
	"repro/internal/serial"
)

// ladderOps numbers the traced run's layer replays apart from the served
// calls, so their span trees never share an op id.
const ladderOps = int64(1) << 40

// ladderResult is what the engine-layer replay measured.
type ladderResult struct {
	sentences int
	checks    uint64 // cdg constraint checks, summed (exact)
	iters     uint64 // cn filtering passes, summed (exact)

	gang              int
	soloNs, gangNs    int64
	attr              core.Attribution
	maspar            metrics.Counters // summed over the solo runs (exact)
	latSlots, latPath int              // lattice rung: slot decodes and paths expanded
	latBuilt          int              // prefix slots the lattice rung had to build
	latStats          latticeserve.CacheStats
	problems          []string
}

// phaseSpan maps a serial.Options.Phase label to the stage that ended
// when the callback fired.
func phaseSpan(label string) string {
	switch {
	case label == "initial":
		return "cn.build"
	case strings.HasPrefix(label, "unary:"), label == "after-unary":
		return "cn.unary"
	case strings.HasPrefix(label, "binary:"):
		return "cn.binary"
	case strings.HasPrefix(label, "consistency:"):
		return "cn.consistency"
	case label == "after-filtering":
		return "cn.filter"
	}
	return "serial.phase"
}

// runLadder replays the workload's inputs through each engine layer's
// public entry point, one call at a time, with a span around each.
func runLadder(ctx context.Context, tr *tracer, g *cdg.Grammar, maxParses int, sents, gang [][]string, lats [][][]string) (*ladderResult, error) {
	lr := &ladderResult{}
	op := ladderOps
	limit := extractLimit(maxParses)

	// cdg → cn → serial, then extraction.
	for _, words := range sents {
		op++
		t0 := tr.now()
		sent, err := cdg.Resolve(g, words, nil)
		if err != nil {
			return nil, fmt.Errorf("resolve %q: %w", strings.Join(words, " "), err)
		}
		tr.add("cdg.resolve", op, -1, t0, tr.now())

		root := tr.begin("serial.parse", op, -1)
		prev := tr.now()
		opt := serial.DefaultOptions()
		opt.Ctx = ctx
		opt.Phase = func(label string, _ *cn.Network) {
			now := tr.now()
			tr.add(phaseSpan(label), op, root, prev, now)
			prev = tr.now()
		}
		res, err := serial.Parse(g, sent, opt)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		lr.checks += res.Counters.ConstraintChecks
		lr.iters += res.Counters.FilterIterations

		t0 = tr.now()
		for _, a := range res.Network.ExtractParses(limit) {
			_ = cn.RenderPrecedenceGraph(a)
		}
		tr.add("cn.extract", op, -1, t0, tr.now())
		lr.sentences++
	}

	// core on the MasPar backend: each sentence solo with per-stage
	// attribution, then the same sentences as one gang.
	var gsents []*cdg.Sentence
	for _, words := range gang {
		sent, err := cdg.Resolve(g, words, nil)
		if err != nil {
			return nil, err
		}
		gsents = append(gsents, sent)
	}
	lr.gang = len(gsents)
	solo := core.NewParser(g, core.WithBackend(core.MasPar), core.WithAttribution(&lr.attr))
	var soloCounters []metrics.Counters
	for _, sent := range gsents {
		op++
		id := tr.begin("core.solo", op, -1)
		t0 := time.Now()
		res, err := solo.ParseSentenceContext(ctx, sent)
		lr.soloNs += int64(time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		lr.maspar.Add(res.Counters)
		soloCounters = append(soloCounters, *res.Counters)
	}
	if len(gsents) > 0 {
		op++
		id := tr.begin("core.gang", op, -1)
		t0 := time.Now()
		results, err := core.NewParser(g, core.WithBackend(core.MasPar)).ParseGangContext(ctx, gsents)
		lr.gangNs = int64(time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			if *r.Counters != soloCounters[i] {
				lr.problems = append(lr.problems, fmt.Sprintf("gang member %d counters %v differ from its solo run %v", i, r.Counters, &soloCounters[i]))
			}
		}
	}

	// lattice + latticeserve: each utterance decoded after every slot,
	// as the streaming endpoint does, on one engine with the default
	// prefix cache.
	eng := latticeserve.New(latticeserve.Config{})
	for u, slots := range lats {
		l := lattice.New()
		for _, alts := range slots {
			la := make([]lattice.Alt, len(alts))
			for j, w := range alts {
				la[j] = lattice.Alt{Word: w, Score: -float64(j)}
			}
			if err := l.AddSlot(la...); err != nil {
				return nil, err
			}
			op++
			t0 := tr.now()
			l.Expand(streamMaxPaths)
			tr.add("lattice.expand", op, -1, t0, tr.now())
			id := tr.begin("latticeserve.decode", op, -1)
			out, err := eng.DecodeContext(ctx, latticeserve.Request{
				Grammar: g, GrammarKey: grammarName, MaxParses: streamMaxParses, MaxPaths: streamMaxPaths,
			}, l)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("utterance %d: %w", u, err)
			}
			lr.latSlots++
			lr.latPath += out.Expanded
			lr.latBuilt += out.PrefixMisses
		}
	}
	lr.latStats = eng.Stats()
	return lr, nil
}
