// Command corpus evaluates a CDG grammar against a labeled regression
// corpus (one '+'/'-'-prefixed sentence per line; see internal/corpus).
//
// Usage:
//
//	corpus -grammar english                 # built-in English regression
//	corpus -grammar english -file my.txt    # custom corpus
//	corpus -grammar-file g.cdg -file my.txt -backend maspar
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/grammars"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("corpus", flag.ContinueOnError)
	var (
		grammarName = fs.String("grammar", "english", "built-in grammar: demo|english|ww|dyck|anbn|crossserial|chain")
		grammarFile = fs.String("grammar-file", "", "load a grammar from an s-expression file instead")
		file        = fs.String("file", "", "corpus file (default: the built-in English regression)")
		backend     = fs.String("backend", "serial", "machine model: serial|pram|maspar|mesh")
		verbose     = fs.Bool("v", false, "print every verdict, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *cdg.Grammar
	var err error
	if *grammarFile != "" {
		src, err2 := os.ReadFile(*grammarFile)
		if err2 != nil {
			return err2
		}
		g, err = cdg.ParseGrammar(string(src))
	} else {
		switch *grammarName {
		case "demo":
			g = grammars.PaperDemo()
		case "english":
			g = grammars.English()
		case "ww":
			g = grammars.CopyLanguage()
		case "dyck":
			g = grammars.Dyck()
		case "anbn":
			g = grammars.AnBn()
		case "crossserial":
			g = grammars.CrossSerial()
		case "chain":
			g = grammars.Chain()
		default:
			return fmt.Errorf("unknown grammar %q", *grammarName)
		}
	}
	if err != nil {
		return err
	}

	src := corpus.EnglishRegression
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		src = string(data)
	}
	c, err := corpus.Parse(src)
	if err != nil {
		return err
	}

	b, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}

	p := core.NewParser(g, core.WithBackend(b))
	rep := corpus.Run(g, p, c)
	if *verbose {
		for _, v := range rep.Verdicts {
			mark := "PASS"
			if !v.Pass() {
				mark = "FAIL"
			}
			fmt.Fprintf(out, "%s line %-4d %v\n", mark, v.Entry.Line, v.Entry.Words)
		}
	}
	fmt.Fprint(out, rep.String())
	if rep.Failed > 0 {
		return fmt.Errorf("%d corpus failure(s)", rep.Failed)
	}
	return nil
}
