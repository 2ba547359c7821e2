package grammars

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cdg"
)

// builtins maps the public name of every shipped grammar to its one
// shared instance, built on first use. A *cdg.Grammar is immutable, and
// caches keyed by grammar pointer (core's layout cache) need "same
// name" to mean "same pointer": a fresh instance per lookup would pin
// another grammar, and its layouts, on every lookup.
var builtins = map[string]func() *cdg.Grammar{
	"demo":        sync.OnceValue(PaperDemo),
	"english":     sync.OnceValue(English),
	"ww":          sync.OnceValue(CopyLanguage),
	"dyck":        sync.OnceValue(Dyck),
	"anbn":        sync.OnceValue(AnBn),
	"chain":       sync.OnceValue(Chain),
	"crossserial": sync.OnceValue(CrossSerial),
}

// Names returns the built-in grammar names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named built-in grammar. Every call with one name
// returns the same instance; the constructors (English, PaperDemo, …)
// still build a fresh grammar per call.
func ByName(name string) (*cdg.Grammar, error) {
	f, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("unknown grammar %q (built-ins: demo|english|ww|dyck|anbn|crossserial|chain)", name)
	}
	return f(), nil
}
