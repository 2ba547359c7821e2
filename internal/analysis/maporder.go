package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map whose body performs an
// order-sensitive operation — appending to an outer slice, sending on
// a channel, writing output, feeding a hash, or calling out with the
// iteration variables — without the appended keys being sorted
// afterwards. Go randomizes map iteration order per run, so any such
// loop makes wire output, simulator traces, or grammar compilation
// depend on the run. The canonical fix is collect-keys-then-sort,
// which the analyzer recognizes and accepts.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive operations inside map iteration in the " +
		"deterministic packages and server response paths",
	Match: pkgPathIn("maspar", "pram", "meshcdg", "cdg", "cn", "serial",
		"server", "metrics", "grammars"),
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		var fns []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				fns = append(fns, n)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypesInfo.TypeOf(rng.X)) {
				checkMapRange(pass, rng, innermostFunc(fns, rng.Pos()))
			}
			return true
		})
	}
	return nil
}

// innermostFunc returns the smallest function node containing pos.
func innermostFunc(fns []ast.Node, pos token.Pos) ast.Node {
	var best ast.Node
	for _, fn := range fns {
		if pos < fn.Pos() || pos > fn.End() {
			continue
		}
		if best == nil || fn.End()-fn.Pos() < best.End()-best.Pos() {
			best = fn
		}
	}
	return best
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body for order-sensitive
// operations. encl is the enclosing function (for the sorted-later
// exemption).
func checkMapRange(pass *Pass, rng *ast.RangeStmt, encl ast.Node) {
	iterVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			iterVars[pass.TypesInfo.Defs[id]] = true
			iterVars[pass.TypesInfo.Uses[id]] = true // `=` form
		}
	}
	delete(iterVars, nil)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rng && isMapType(pass.TypesInfo.TypeOf(n.X)) {
				return false // reported on its own visit
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration: receive order depends on map order; iterate sorted keys")
			return false
		case *ast.AssignStmt:
			checkAppendAssign(pass, n, rng, encl)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkLoopCall(pass, call, rng, iterVars)
				return false // args inspected by checkLoopCall
			}
		}
		return true
	})
}

// checkAppendAssign flags `outer = append(outer, ...)` inside a map
// range unless outer is sorted after the loop in the same function.
func checkAppendAssign(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt, encl ast.Node) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") || i >= len(as.Lhs) {
			continue
		}
		target, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[target]
		if obj == nil {
			obj = pass.TypesInfo.Defs[target]
		}
		// Appending to a variable declared inside the loop body only
		// reorders loop-local state; harmless.
		if obj == nil || (obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End()) {
			continue
		}
		if sortedAfter(pass, obj, rng, encl) {
			continue
		}
		pass.Reportf(as.Pos(),
			"append to %q inside map iteration without sorting it afterwards: slice order depends on map order", target.Name)
	}
}

// sortedAfter reports whether obj is passed to a sort.*/slices.* call
// after the range statement inside the enclosing function.
func sortedAfter(pass *Pass, obj types.Object, rng *ast.RangeStmt, encl ast.Node) bool {
	if encl == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, isPkg := pass.TypesInfo.Uses[pkgID].(*types.PkgName); !isPkg ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// orderSensitiveWriters are method names whose call inside a map range
// emits bytes in iteration order (io writers, hashes, string builders).
var orderSensitiveWriters = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Sum": true, "Sum64": true, "Sum32": true,
}

// checkLoopCall flags statement-level calls inside a map range that
// either write output or hand an iteration variable to code declared
// outside the loop — both make externally visible effects follow map
// order.
func checkLoopCall(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt, iterVars map[types.Object]bool) {
	// delete(m, k), close(ch), and friends are order-insensitive.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltinObj := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltinObj {
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && orderSensitiveWriters[sel.Sel.Name] {
		pass.Reportf(call.Pos(),
			"%s inside map iteration: output order depends on map order; iterate sorted keys", sel.Sel.Name)
		return
	}
	usesIter := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && iterVars[pass.TypesInfo.Uses[id]] {
				usesIter = true
			}
			return !usesIter
		})
	}
	if usesIter {
		pass.Reportf(call.Pos(),
			"call with map iteration variables as arguments: effect order depends on map order; iterate sorted keys")
	}
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
