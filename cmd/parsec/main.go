// Command parsec parses sentences with a CDG grammar on a selectable
// backend (serial / pram / maspar / mesh) and prints the
// final constraint network, the precedence graphs, and the machine
// statistics. Grammar-development flags: -lint (static checks),
// -trace (per-constraint elimination log), -diagnose N (find the
// constraint sets blocking a rejected sentence), -explain
// pos.role.LABEL-mod (the Figure 10 support computation), -show-pe-map
// (the Figure 11 allocation), -dot (Graphviz).
//
// Usage:
//
//	parsec [flags] word word word…
//	parsec -grammar english -backend maspar the dog saw the man
//	parsec -grammar-file my.cdg -show-network runs program the
//
// Built-in grammars: demo (the paper's §1 grammar), english, ww, dyck,
// anbn, crossserial, chain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cdg"
	"repro/internal/cn"
	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/maspar"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parsec:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("parsec", flag.ContinueOnError)
	var (
		grammarName = fs.String("grammar", "demo", "built-in grammar: demo|english|ww|dyck|anbn|chain")
		grammarFile = fs.String("grammar-file", "", "load a grammar from an s-expression file instead")
		backend     = fs.String("backend", "maspar", "machine model: serial|pram|maspar|mesh")
		pes         = fs.Int("pes", maspar.PhysicalPEs, "physical PEs for the maspar backend")
		maxFilter   = fs.Int("max-filter", 0, "bound filtering rounds (0 = run to fixpoint)")
		noFilter    = fs.Bool("no-filter", false, "skip the filtering phase")
		showNet     = fs.Bool("show-network", false, "print the final constraint network")
		showPEMap   = fs.Bool("show-pe-map", false, "print the MasPar PE allocation (Figure 11)")
		showTrace   = fs.Bool("trace", false, "print a propagation trace (serial engine)")
		dot         = fs.Bool("dot", false, "emit Graphviz DOT for the parses (and the network if ambiguous)")
		explain     = fs.String("explain", "", "explain support of a role value, e.g. 2.governor.SUBJ-1 (Figure 10)")
		lint        = fs.Bool("lint", false, "run the grammar linter before parsing")
		diagnose    = fs.Int("diagnose", 0, "when rejected, search for blocker constraint sets up to this size")
		maxParses   = fs.Int("max-parses", 10, "max precedence graphs to print (0 = all)")
		stats       = fs.Bool("stats", true, "print machine statistics")
		jsonOut     = fs.Bool("json", false, "emit the parsecd service result schema instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	words := fs.Args()
	if len(words) == 0 {
		return fmt.Errorf("no sentence given; try: parsec the program runs")
	}

	g, err := loadGrammar(*grammarName, *grammarFile)
	if err != nil {
		return err
	}
	if *lint {
		if findings := cdg.Lint(g); len(findings) > 0 {
			for _, f := range findings {
				fmt.Fprintf(out, "lint: %s\n", f)
			}
		} else {
			fmt.Fprintln(out, "lint: grammar is clean")
		}
	}

	b, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}

	p := core.NewParser(g,
		core.WithBackend(b),
		core.WithPEs(*pes),
		core.WithFilter(!*noFilter),
		core.WithMaxFilterIters(*maxFilter),
	)
	res, err := p.Parse(words)
	if err != nil {
		return err
	}

	if *jsonOut {
		// Emit exactly the schema POST /v1/parse returns, so CLI and
		// service output are diffable.
		key := *grammarName
		if *grammarFile != "" {
			key = "file:" + *grammarFile
		}
		mp := *maxParses
		if mp == 0 {
			mp = -1 // CLI 0 means all; the wire convention is -1
		}
		return json.NewEncoder(out).Encode(server.NewResult(words, key, *backend, res, mp))
	}

	fmt.Fprintf(out, "sentence: %s\n", strings.Join(words, " "))
	fmt.Fprintf(out, "accepted: %v   ambiguous: %v\n", res.Accepted(), res.Ambiguous())
	if *showPEMap {
		sent, err := cdg.Resolve(g, words, nil)
		if err != nil {
			return err
		}
		sp := cdg.NewSpace(g, sent)
		ly := core.NewLayout(sp)
		fmt.Fprintf(out, "\nPE allocation (Figure 11):\n%s", ly.RenderAllocation(sp))
	}
	if *showTrace {
		_, tr, err := trace.Run(g, words, serial.Options{
			Filter:         !*noFilter,
			MaxFilterIters: *maxFilter,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s", tr.String())
	}
	if *showNet {
		fmt.Fprintf(out, "\nfinal network:\n%s", res.Network.Render())
	}
	if *explain != "" {
		pos, r, idx, err := cn.ParseRVSpec(res.Network.Space(), *explain)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s", res.Network.ExplainSupport(pos, r, idx))
	}
	parses := res.Parses(*maxParses)
	fmt.Fprintf(out, "\nprecedence graphs (%d shown):\n", len(parses))
	for i, a := range parses {
		fmt.Fprintf(out, "--- parse %d ---\n%s", i+1, cn.RenderPrecedenceGraph(a))
		if *dot {
			fmt.Fprint(out, cn.RenderDot(a))
		}
	}
	if *dot && res.Ambiguous() {
		fmt.Fprintf(out, "\nnetwork (candidate edges dashed):\n%s", cn.RenderNetworkDot(res.Network))
	}
	if *diagnose > 0 && len(parses) == 0 {
		blockers, already, err := serial.Diagnose(g, words, *diagnose)
		if err != nil {
			return err
		}
		switch {
		case already:
			fmt.Fprintln(out, "\ndiagnose: the sentence parses — nothing to relax")
		case len(blockers) == 0:
			fmt.Fprintf(out, "\ndiagnose: no constraint set of size <= %d unblocks the sentence\n", *diagnose)
		default:
			fmt.Fprintln(out, "\ndiagnose: minimal constraint relaxations that admit the sentence:")
			for _, b := range blockers {
				fmt.Fprintf(out, "  %s\n", b)
			}
		}
	}
	if *stats {
		fmt.Fprintf(out, "\n%s\n", res.Stats())
		if res.ModelTime > 0 {
			fmt.Fprintf(out, "simulated MP-1 wall clock: %.3fs (12.5 MHz, %d PEs, %d layers)\n",
				res.ModelTime.Seconds(), *pes, res.Counters.VirtualLayers)
		}
		fmt.Fprintf(out, "host time: %v\n", res.HostTime)
	}
	return nil
}

func loadGrammar(name, file string) (*cdg.Grammar, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return cdg.ParseGrammar(string(src))
	}
	return grammars.ByName(name)
}
