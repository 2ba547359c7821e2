package cdg

import (
	"fmt"

	"repro/internal/sexpr"
)

// CompileConstraint compiles an additional constraint against an
// existing grammar without rebuilding it. This is how the paper's
// "contextually-determined constraint sets" work (§1.5): a core grammar
// parses every sentence, and context supplies extra constraints that
// are propagated into an already-built network (see serial.Refine).
// The constraint is not added to the grammar's own constraint list.
func (g *Grammar) CompileConstraint(name, src string) (*Constraint, error) {
	return compileConstraint(g, name, src)
}

// compileConstraint parses and type-checks one constraint of the form
//
//	(if antecedent consequent)
//
// where antecedent and consequent are predicates over the role-value
// variables x (and optionally y). Arity is inferred: a constraint that
// mentions only x is unary; one that mentions x and y is binary. The
// paper limits constraints to two variables — constraints over three or
// more would "unreasonably increase the running time" — so any other
// variable name is rejected. Every access function and predicate here is
// evaluable in constant time, preserving the paper's O(1)-per-check
// requirement.
func compileConstraint(g *Grammar, name, src string) (*Constraint, error) {
	node, err := sexpr.Parse(src)
	if err != nil {
		return nil, err
	}
	return compileConstraintNode(g, name, node)
}

func compileConstraintNode(g *Grammar, name string, node *sexpr.Node) (*Constraint, error) {
	if node.Head() != "if" {
		return nil, fmt.Errorf("%s: constraint must be (if antecedent consequent)", node.Pos)
	}
	args := node.Args()
	if len(args) != 2 {
		return nil, fmt.Errorf("%s: if takes exactly 2 arguments, got %d", node.Pos, len(args))
	}
	cc := &compiler{g: g}
	ante, err := cc.compile(args[0])
	if err != nil {
		return nil, err
	}
	cons, err := cc.compile(args[1])
	if err != nil {
		return nil, err
	}
	mask := ante.vars() | cons.vars()
	var arity int
	switch mask {
	case 1:
		arity = 1
	case 3:
		arity = 2
	case 0:
		return nil, fmt.Errorf("%s: constraint references no role-value variable", node.Pos)
	case 2:
		return nil, fmt.Errorf("%s: constraint uses y but not x; rename y to x", node.Pos)
	}
	c := &Constraint{
		Name:   name,
		Arity:  arity,
		Source: node.String(),
		ante:   ante,
		cons:   cons,
	}
	// Lower to a flat program eagerly, at grammar-compile time: every
	// engine then binds the compiled form per sentence. nil (a leaf
	// with no fused test) leaves the constraint on the reference
	// interpreter.
	c.prog = compileProg(c)
	return c, nil
}

// compiler resolves symbols against the grammar's name spaces.
type compiler struct {
	g *Grammar
}

func (cc *compiler) compile(n *sexpr.Node) (expr, error) {
	switch n.Kind {
	case sexpr.KInt:
		return &constExpr{v: value{kind: vInt, n: n.Int}}, nil
	case sexpr.KString:
		return nil, fmt.Errorf("%s: string literals are not part of the constraint language", n.Pos)
	case sexpr.KSymbol:
		return cc.compileSymbol(n)
	case sexpr.KList:
		return cc.compileList(n)
	}
	return nil, fmt.Errorf("%s: unsupported expression", n.Pos)
}

func (cc *compiler) compileSymbol(n *sexpr.Node) (expr, error) {
	s := n.Sym
	switch s {
	case "nil":
		return &constExpr{v: valNil, name: "nil"}, nil
	case "x", "y":
		return nil, fmt.Errorf("%s: variable %s may only appear inside lab/mod/role/pos", n.Pos, s)
	}
	if id, ok := cc.g.labelIdx[s]; ok {
		return &constExpr{v: value{kind: vLabel, n: int64(id)}, name: s}, nil
	}
	if id, ok := cc.g.roleIdx[s]; ok {
		return &constExpr{v: value{kind: vRole, n: int64(id)}, name: s}, nil
	}
	if id, ok := cc.g.catIdx[s]; ok {
		return &constExpr{v: value{kind: vCat, n: int64(id)}, name: s}, nil
	}
	return nil, fmt.Errorf("%s: unknown symbol %q (not a label, role, or category of this grammar)", n.Pos, s)
}

func (cc *compiler) compileList(n *sexpr.Node) (expr, error) {
	head := n.Head()
	args := n.Args()
	switch head {
	case "lab", "mod", "role", "pos":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s: (%s v) takes exactly one variable", n.Pos, head)
		}
		v := args[0]
		if !v.IsSym("x") && !v.IsSym("y") {
			return nil, fmt.Errorf("%s: argument of %s must be the variable x or y, got %s", n.Pos, head, v)
		}
		return &accessExpr{fn: head, onY: v.IsSym("y")}, nil

	case "word":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s: (word p) takes exactly one argument", n.Pos)
		}
		arg, err := cc.compile(args[0])
		if err != nil {
			return nil, err
		}
		if k, known := staticKind(arg); known && k != vInt {
			return nil, fmt.Errorf("%s: (word p) needs an integer position, got %s", n.Pos, k)
		}
		return &wordExpr{arg: arg}, nil

	case "cat":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s: (cat w) takes exactly one argument", n.Pos)
		}
		arg, err := cc.compile(args[0])
		if err != nil {
			return nil, err
		}
		if k, known := staticKind(arg); known && k != vWord {
			return nil, fmt.Errorf("%s: (cat w) needs a word, got %s", n.Pos, k)
		}
		return &catExpr{arg: arg}, nil

	case "and", "or":
		if len(args) < 2 {
			return nil, fmt.Errorf("%s: (%s …) needs at least two arguments", n.Pos, head)
		}
		exprs, err := cc.compileAll(args)
		if err != nil {
			return nil, err
		}
		return &logicExpr{op: head, args: exprs}, nil

	case "not":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s: (not p) takes exactly one argument", n.Pos)
		}
		a, err := cc.compile(args[0])
		if err != nil {
			return nil, err
		}
		return &logicExpr{op: "not", args: []expr{a}}, nil

	case "eq", "gt", "lt":
		if len(args) != 2 {
			return nil, fmt.Errorf("%s: (%s a b) takes exactly two arguments", n.Pos, head)
		}
		a, err := cc.compile(args[0])
		if err != nil {
			return nil, err
		}
		b, err := cc.compile(args[1])
		if err != nil {
			return nil, err
		}
		if head == "gt" || head == "lt" {
			for _, e := range []expr{a, b} {
				if k, known := staticKind(e); known && k != vInt && k != vNil {
					return nil, fmt.Errorf("%s: (%s a b) compares integers, got %s", n.Pos, head, k)
				}
			}
		}
		return &cmpExpr{op: head, a: a, b: b}, nil

	case "":
		return nil, fmt.Errorf("%s: expression list must start with an operator symbol", n.Pos)
	default:
		return nil, fmt.Errorf("%s: unknown operator %q", n.Pos, head)
	}
}

func (cc *compiler) compileAll(nodes []*sexpr.Node) ([]expr, error) {
	out := make([]expr, len(nodes))
	for i, n := range nodes {
		e, err := cc.compile(n)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// staticKind reports an expression's result kind when it is knowable at
// compile time. (mod x) is excluded: it is int-or-nil depending on the
// bound role value.
func staticKind(e expr) (valKind, bool) {
	switch t := e.(type) {
	case *constExpr:
		return t.v.kind, true
	case *accessExpr:
		switch t.fn {
		case "lab":
			return vLabel, true
		case "role":
			return vRole, true
		case "pos":
			return vInt, true
		case "mod":
			return vInvalid, false // int or nil at run time
		}
	case *wordExpr:
		return vWord, true
	case *catExpr:
		return vCat, true
	case *logicExpr, *cmpExpr:
		return vBool, true
	}
	return vInvalid, false
}
