package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// LockSafe machine-checks the locking conventions of the concurrent
// server code. Two rules:
//
//  1. Guarded fields. In a struct, the fields declared in the same
//     contiguous block as a sync.Mutex/sync.RWMutex field whose name
//     contains "mu" (i.e. on consecutive lines after it, up to the
//     first blank line) are guarded by that mutex — the comment-free
//     layout convention this codebase uses, e.g.:
//
//     mu       sync.Mutex
//     requests map[int]uint64 // guarded
//     work     metrics.Counters // guarded
//
//     batches atomic.Uint64 // NOT guarded (blank line above)
//
//     A guarded field may only be read or written in a function that
//     has already called <recv>.mu.Lock() or RLock() (lexically
//     earlier in the same function body).
//
//  2. No lock copies at API boundaries: parameters, results, and
//     receivers must not contain sync.Mutex, sync.RWMutex,
//     sync.WaitGroup, sync.Once, or sync.Cond by value.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "mutex-adjacent struct fields must be accessed with the mutex " +
		"held; no locks passed or received by value",
	Match: pkgPathIn("server", "metrics", "maspar", "router"),
	Run:   runLockSafe,
}

// guardedField identifies one mutex-protected field.
type guardedField struct {
	structType *types.Named
	mutexName  string
}

func runLockSafe(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkLockValues(pass, fd)
			if fd.Body != nil {
				checkGuardedAccesses(pass, fd, guarded)
			}
		}
	}
	return nil
}

// collectGuardedFields maps each guarded *types.Var to the mutex field
// that protects it, using the contiguous-block convention.
func collectGuardedFields(pass *Pass) map[*types.Var]guardedField {
	out := make(map[*types.Var]guardedField)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			named, _ := pass.TypesInfo.Defs[ts.Name].Type().(*types.Named)
			if named == nil {
				return true
			}
			var mutexName string
			lastLine := -2
			for _, field := range st.Fields.List {
				line := pass.Fset.Position(field.Pos()).Line
				endLine := pass.Fset.Position(field.End()).Line
				contiguous := line == lastLine+1
				lastLine = endLine
				if isMutexField(pass, field) {
					if len(field.Names) == 1 && strings.Contains(strings.ToLower(field.Names[0].Name), "mu") {
						mutexName = field.Names[0].Name
					} else {
						mutexName = ""
					}
					continue
				}
				if mutexName == "" {
					continue
				}
				if !contiguous {
					mutexName = "" // blank line (or comment gap) ends the guarded block
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = guardedField{structType: named, mutexName: mutexName}
					}
				}
			}
			return true
		})
	}
	return out
}

// isMutexField reports whether field's type is sync.Mutex or
// sync.RWMutex.
func isMutexField(pass *Pass, field *ast.Field) bool {
	t := pass.TypesInfo.TypeOf(field.Type)
	return isSyncType(t, "Mutex") || isSyncType(t, "RWMutex")
}

func isSyncType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// checkGuardedAccesses enforces rule 1 within one function: every
// selector of a guarded field must be preceded (lexically) by a
// Lock/RLock call on the same base expression's mutex.
func checkGuardedAccesses(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Var]guardedField) {
	if len(guarded) == 0 {
		return
	}
	// locks[base] = position of the first <base>.<mu>.Lock() call.
	locks := make(map[string]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		mu, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key := exprText(pass.Fset, mu.X) + "." + mu.Sel.Name
		if old, seen := locks[key]; !seen || call.Pos() < old {
			locks[key] = call.Pos()
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		v, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, isGuarded := guarded[v]
		if !isGuarded {
			return true
		}
		key := exprText(pass.Fset, sel.X) + "." + g.mutexName
		if pos, locked := locks[key]; locked && pos < sel.Pos() {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %s but accessed without %s.%s.Lock() earlier in %s",
			exprText(pass.Fset, sel.X), v.Name(), g.mutexName,
			exprText(pass.Fset, sel.X), g.mutexName, fd.Name.Name)
		return true
	})
}

// checkLockValues enforces rule 2 on fd's signature.
func checkLockValues(pass *Pass, fd *ast.FuncDecl) {
	report := func(field *ast.Field, what string) {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t != nil && containsLock(t, nil) {
			pass.Reportf(field.Pos(), "%s of %s carries a sync primitive by value: pass a pointer", what, fd.Name.Name)
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			report(field, "receiver")
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			report(field, "parameter")
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			report(field, "result")
		}
	}
}

// containsLock reports whether t holds a sync primitive by value
// (pointers, maps, slices, and channels break the chain).
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	for _, name := range []string{"Mutex", "RWMutex", "WaitGroup", "Once", "Cond"} {
		if isSyncType(t, name) {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// exprText renders expr as source text (for matching lock receivers).
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
