package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/grammars"
)

// masparFingerprint parses words on the MasPar backend and renders
// everything observable about the run that must not depend on host
// scheduling: the full work accounting (cycles, scan ops, processor
// counts, ...) and the extracted parses, byte for byte.
func masparFingerprint(t *testing.T, words []string) string {
	t.Helper()
	p := NewParser(grammars.PaperDemo(), WithBackend(MasPar))
	res, err := p.Parse(words)
	if err != nil {
		t.Fatalf("parse %v: %v", words, err)
	}
	var b strings.Builder
	b.WriteString(res.Stats())
	b.WriteByte('\n')
	for _, a := range res.Parses(0) {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMasParDeterminismAcrossGOMAXPROCS is a cheap guard on the
// detrand contract: the simulator runs every instruction on the
// caller's goroutine and must never compute differently with the
// host's configuration. The same parse under different GOMAXPROCS
// settings must produce identical cycle counts, scan ops, and parse
// output.
func TestMasParDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	sentences := [][]string{
		{"the", "program", "runs"},
		{"the", "program", "runs", "the", "machine"},
		{"runs", "program", "the"}, // rejected input: failure path too
	}
	for _, words := range sentences {
		runtime.GOMAXPROCS(1)
		want := masparFingerprint(t, words)
		for _, n := range []int{2, 8} {
			runtime.GOMAXPROCS(n)
			if got := masparFingerprint(t, words); got != want {
				t.Errorf("%v: GOMAXPROCS=%d diverges from GOMAXPROCS=1:\n got: %s\nwant: %s",
					words, n, got, want)
			}
		}
	}
}
