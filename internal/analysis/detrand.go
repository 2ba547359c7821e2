package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DetRand forbids nondeterminism sources inside the simulator
// packages: the paper's step/op-count claims are reproducible only if
// every engine is bit-deterministic, so wall-clock reads, unseeded
// randomness, and goroutine-count probes are banned there outright.
//
//   - importing math/rand or math/rand/v2 (grammars that need fuzz
//     randomness use a seeded local generator instead);
//   - time.Now, time.Since, time.Until (simulated time must come from
//     the machine's cycle model, never the host clock);
//   - runtime.NumGoroutine, runtime.NumCPU, runtime.GOMAXPROCS
//     (observable behaviour must not depend on how many host workers
//     happen to run the lockstep loops).
//
// The simulators run every instruction and every P-RAM step on the
// caller's goroutine, so none of them has a reason to probe the host:
// host parallelism is the serving pool's business, one parse per
// worker, outside these packages.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock, unseeded randomness, and goroutine-count probes " +
		"in the deterministic simulator packages",
	Match: pkgPathIn("maspar", "pram", "meshcdg", "cdg", "cn", "serial"),
	Run:   runDetRand,
}

// detrandBanned maps package path → banned function names (empty set:
// the import itself is banned).
var detrandBanned = map[string]map[string]string{
	"math/rand":    nil,
	"math/rand/v2": nil,
	"time": {
		"Now":   "reads the host clock",
		"Since": "reads the host clock",
		"Until": "reads the host clock",
	},
	"runtime": {
		"NumGoroutine": "depends on scheduler state",
		"NumCPU":       "depends on the host machine",
		"GOMAXPROCS":   "depends on host configuration",
	},
}

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if why, banned := detrandBanned[path]; banned && why == nil {
				pass.Reportf(imp.Pos(),
					"import of %s in a deterministic simulator package: use a seeded generator (cf. grammars.Random)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			funcs := detrandBanned[obj.Pkg().Path()]
			if funcs == nil {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true
			}
			if why, bad := funcs[obj.Name()]; bad {
				pass.Reportf(sel.Pos(), "%s.%s %s; deterministic simulator packages must not observe it",
					obj.Pkg().Name(), obj.Name(), why)
			}
			return true
		})
	}
	return nil
}
