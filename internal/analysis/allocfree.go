package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// AllocFree enforces the //parsec:noalloc contract: a function whose
// doc comment carries the directive promises zero heap allocations per
// call in steady state — the property the AllocsPerRun==0 assertions
// in the maspar bench tests pin at bench time, moved to lint time so a
// regression is caught on the PR that introduces it, not the next time
// someone reads BENCH_scan.json.
//
// Enforcement is two-layered:
//
//   - The compiler's own escape analysis. The analyzer runs
//     `go build -gcflags=-m` on every package containing an annotated
//     function and maps each "escapes to heap"/"moved to heap"
//     diagnostic into the annotated bodies. The build cache replays
//     compiler diagnostics, so repeated lint runs stay cheap.
//
//   - AST checks for allocation idioms escape analysis reports
//     elsewhere or not at all: make/new, append (may grow the backing
//     array), func literals (closure allocation), concrete-to-
//     interface argument conversions (boxing), and calls to in-module
//     functions that are not themselves //parsec:noalloc (the
//     contract is compositional — an unannotated callee is an
//     unaudited allocation surface).
//
// Intentional steady-state-amortized allocations (a free list's
// growth, say) are suppressed with //lint:allow allocfree and a
// justification.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "//parsec:noalloc functions must not allocate: escape-analysis " +
		"diagnostics and allocation idioms are errors inside them",
	Match:      pkgPathIn("maspar", "core", "bitset", "cdg"),
	RunProgram: runAllocFree,
}

// noallocDirective is the doc-comment marker.
const noallocDirective = "//parsec:noalloc"

// noallocFunc is one annotated function.
type noallocFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	filename string // absolute path, as recorded in the package fset
	startLn  int
	endLn    int
}

func runAllocFree(pass *ProgramPass) error {
	var annotated []*noallocFunc
	annotatedNames := make(map[string]bool) // FullName set, for the compositional check
	forEachFuncDecl(pass.Prog, func(pkg *Package, fd *ast.FuncDecl) {
		if !hasNoallocDirective(fd) {
			return
		}
		start := pkg.Fset.Position(fd.Pos())
		end := pkg.Fset.Position(fd.End())
		annotated = append(annotated, &noallocFunc{
			pkg:      pkg,
			decl:     fd,
			filename: start.Filename,
			startLn:  start.Line,
			endLn:    end.Line,
		})
		if name := declFullName(pkg, fd); name != "" {
			annotatedNames[name] = true
		}
	})
	if len(annotated) == 0 {
		return nil
	}

	for _, nf := range annotated {
		checkNoallocAST(pass, nf, annotatedNames)
	}

	// Escape analysis over the real packages (fixture packages are
	// synthetic — not addressable by the go tool).
	pkgPaths := make(map[string]bool)
	for _, nf := range annotated {
		if !strings.HasPrefix(nf.pkg.ImportPath, "fixture/") {
			pkgPaths[nf.pkg.ImportPath] = true
		}
	}
	if len(pkgPaths) == 0 {
		return nil
	}
	var paths []string
	for p := range pkgPaths {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out, err := runEscapeAnalysis(pass.Prog.Dir, paths)
	if err != nil {
		return err
	}
	reported := make(map[string]bool)
	for _, d := range parseEscapeDiags(out) {
		for _, nf := range annotated {
			if d.line < nf.startLn || d.line > nf.endLn || !sameFile(nf.filename, d.file) {
				continue
			}
			key := fmt.Sprintf("%s:%d:%s", d.file, d.line, d.msg)
			if reported[key] {
				continue
			}
			reported[key] = true
			pass.ReportPosition(token.Position{Filename: nf.filename, Line: d.line, Column: d.col},
				"escape analysis: %s in noalloc function %s", d.msg, nf.decl.Name.Name)
		}
	}
	return nil
}

// hasNoallocDirective reports whether fd's doc comment carries the
// //parsec:noalloc directive.
func hasNoallocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), noallocDirective) {
			return true
		}
	}
	return false
}

// checkNoallocAST flags allocation idioms inside one annotated body.
func checkNoallocAST(pass *ProgramPass, nf *noallocFunc, annotatedNames map[string]bool) {
	info := nf.pkg.TypesInfo
	ast.Inspect(nf.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(nf.pkg, n.Pos(),
				"func literal in noalloc function %s: closures allocate", nf.decl.Name.Name)
			return false
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if obj, ok := info.Uses[fun].(*types.Builtin); ok {
					switch obj.Name() {
					case "make":
						pass.Reportf(nf.pkg, n.Pos(),
							"make in noalloc function %s: write into a caller-provided buffer", nf.decl.Name.Name)
						return true
					case "new":
						pass.Reportf(nf.pkg, n.Pos(),
							"new in noalloc function %s", nf.decl.Name.Name)
						return true
					case "append":
						pass.Reportf(nf.pkg, n.Pos(),
							"append in noalloc function %s: growth reallocates the backing array", nf.decl.Name.Name)
						return true
					}
				}
			}
			checkBoxingArgs(pass, nf, n)
			if callee := staticCallee(info, n); callee != nil && callee.Pkg() != nil &&
				!isStdlibPath(callee.Pkg().Path()) && !annotatedNames[callee.FullName()] {
				pass.Reportf(nf.pkg, n.Pos(),
					"noalloc function %s calls %s which is not marked %s: annotate the callee or hoist the call",
					nf.decl.Name.Name, shortFuncName(callee.FullName()), noallocDirective)
			}
		}
		return true
	})
}

// checkBoxingArgs flags concrete values passed where the callee takes
// an interface — the conversion boxes the value on the heap (unless it
// is pointer-shaped and escapes nowhere, which escape analysis will
// confirm or deny; the AST check errs on declaring the intent).
func checkBoxingArgs(pass *ProgramPass, nf *noallocFunc, call *ast.CallExpr) {
	info := nf.pkg.TypesInfo
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param *types.Var
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			param = sig.Params().At(sig.Params().Len() - 1)
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i)
		}
		if param == nil {
			continue
		}
		pt := param.Type()
		if sig.Variadic() && param == sig.Params().At(sig.Params().Len()-1) {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(info, arg) {
			continue
		}
		pass.Reportf(nf.pkg, arg.Pos(),
			"%s boxed into interface %s in noalloc function %s",
			at.String(), pt.String(), nf.decl.Name.Name)
	}
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// runEscapeAnalysis shells out once:
// `go build -gcflags=-m <pkgs...>` in dir, returning the compiler's
// stderr. -m applies to the named packages only, and the build cache
// replays diagnostics on unchanged packages, so repeat runs are cheap.
func runEscapeAnalysis(dir string, pkgs []string) ([]byte, error) {
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m %v: %v\n%s", pkgs, err, stderr.String())
	}
	return stderr.Bytes(), nil
}

// escDiag is one parsed escape-analysis diagnostic.
type escDiag struct {
	file string // as printed by the compiler (relative to the build dir)
	line int
	col  int
	msg  string
}

var escLineRe = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

// parseEscapeDiags extracts the heap-allocation diagnostics from
// `go build -gcflags=-m` output: "escapes to heap" and "moved to
// heap" lines. "does not escape" and inlining chatter are dropped.
func parseEscapeDiags(out []byte) []escDiag {
	var diags []escDiag
	for _, line := range strings.Split(string(out), "\n") {
		m := escLineRe.FindStringSubmatch(strings.TrimRight(line, "\r"))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		ln, err1 := strconv.Atoi(m[2])
		col, err2 := strconv.Atoi(m[3])
		if err1 != nil || err2 != nil {
			continue
		}
		diags = append(diags, escDiag{file: m[1], line: ln, col: col, msg: msg})
	}
	return diags
}

// sameFile matches the compiler's (build-dir-relative) filename
// against the loader's absolute one.
func sameFile(abs, rel string) bool {
	return abs == rel || strings.HasSuffix(abs, "/"+rel)
}
