package cdg

// Lowering from the expr AST to the fused test-and-jump code of vm.go.
// Two transformations, fused into one codegen walk:
//
//  1. Constant folding: a subexpression that references no role-value
//     variable and no sentence state (no word/cat node) is evaluated
//     once at compile time — a folded predicate becomes a jump or
//     nothing, a folded operand an immediate.
//  2. Superinstruction selection: each comparison leaf —
//     access-compare-const, access-compare-access and
//     (eq (cat (word (FIELD v))) CAT) — becomes one fused test.
//
// Predicates are lowered branch-directed (the antecedent, the
// consequent, and every and/or/not operand): truth flows through jump
// targets instead of materialized booleans, so an and-chain costs one
// fused test-and-jump per conjunct and nothing else.
//
// compileProg is total: a constraint with a leaf that has no fused form
// (a word compared as a value, a sentence-only (word N), a comparison
// used as an operand) or a program past the int16 operand encoding
// returns nil, and the constraint simply keeps evaluating through the
// AST reference interpreter.

// codegen accumulates the code of one constraint.
type codegen struct {
	code []instr
}

// emitJump appends a jump with an unpatched target and returns its pc.
func (cg *codegen) emitJump() int {
	cg.code = append(cg.code, instr{op: opJump})
	return len(cg.code) - 1
}

// patch points jump pc at the current end of code. Fused tests carry
// their target in c (a and b hold the access spec and the immediate);
// opJump carries it in a.
func (cg *codegen) patch(pc int) {
	target := int16(len(cg.code))
	if cg.code[pc].op.isTest() {
		cg.code[pc].c = target
	} else {
		cg.code[pc].a = target
	}
}

func (cg *codegen) patchAll(pcs []int) {
	for _, pc := range pcs {
		cg.patch(pc)
	}
}

// sentenceDependent reports whether e reads sentence state (a word or
// cat node anywhere below it). Together with vars()==0 it decides
// whether e folds.
func sentenceDependent(e expr) bool {
	switch t := e.(type) {
	case *wordExpr, *catExpr:
		return true
	case *logicExpr:
		for _, a := range t.args {
			if sentenceDependent(a) {
				return true
			}
		}
	case *cmpExpr:
		return sentenceDependent(t.a) || sentenceDependent(t.b)
	}
	return false
}

// foldConst evaluates e at compile time when it depends on neither a
// role-value variable nor the sentence. eqVals never touches env.Sent
// here — a vWord needs a word node, which is sentence-dependent.
func foldConst(e expr) (value, bool) {
	if e.vars() != 0 || sentenceDependent(e) {
		return value{}, false
	}
	return e.eval(&Env{}), true
}

// fieldClass groups the access fields by the value kind they produce:
// lab → vLabel, role → vRole, pos and mod → the int class (mod also
// admits vNil, which the VM's 0 sentinel and > 0 guards reproduce).
func fieldClass(fn string) int {
	switch fn {
	case "lab":
		return 0
	case "role":
		return 1
	}
	return 2 // pos, mod: int class
}

// catChainField unwraps (cat (word (FIELD v))) to the inner access.
func catChainField(e expr) (*accessExpr, bool) {
	if cat, isCat := e.(*catExpr); isCat {
		if w, isWord := cat.arg.(*wordExpr); isWord {
			acc, isAcc := w.arg.(*accessExpr)
			return acc, isAcc
		}
	}
	return nil, false
}

// fuseCmp recognizes the superinstruction shapes inside a cmpExpr and
// proves their kind rules at compile time:
//
//   - access CMP access → FieldCmpField (eq needs matching kind
//     classes, gt/lt need both int-class; a provable mismatch is a
//     compile-time false);
//   - access CMP const → FieldEqImm/FieldGtImm/FieldLtImm when the
//     constant matches the field's kind and fits the immediate (a kind
//     mismatch is compile-time false; an out-of-range int has no fused
//     form);
//   - (eq (cat (word (FIELD v))) CAT) → CatEqImm.
//
// It returns the JF-form instruction template (target unset), or
// constFalse for comparisons the kind rules decide statically, or
// ok == false when no fusion applies.
func fuseCmp(t *cmpExpr) (in instr, constFalse, ok bool) {
	if accA, aIsAcc := t.a.(*accessExpr); aIsAcc {
		if accB, bIsAcc := t.b.(*accessExpr); bIsAcc {
			ca, cb := fieldClass(accA.fn), fieldClass(accB.fn)
			op := opFieldEqFieldJF
			switch t.op {
			case "eq":
				if ca != cb {
					return instr{}, true, true // vLabel vs vInt etc.: never equal
				}
			case "gt", "lt":
				if ca != 2 || cb != 2 {
					return instr{}, true, true // gt/lt require both ints
				}
				op = opFieldGtFieldJF
				if t.op == "lt" {
					op = opFieldLtFieldJF
				}
			default:
				return instr{}, false, false
			}
			spec := accessSpec(accA) | accessSpec(accB)<<3
			return instr{op: op, a: spec}, false, true
		}
	}

	// One side must fold to a constant; a names the dynamic side.
	a := t.a
	rev := false
	cv, isConst := foldConst(t.b)
	if !isConst {
		cv, isConst = foldConst(t.a)
		if !isConst {
			return instr{}, false, false
		}
		a, rev = t.b, true
	}

	if acc, isAcc := a.(*accessExpr); isAcc {
		spec := accessSpec(acc)
		switch t.op {
		case "eq":
			switch acc.fn {
			case "lab":
				if cv.kind != vLabel {
					return instr{}, true, true
				}
				return instr{op: opFieldEqImmJF, a: spec, b: int16(cv.n)}, false, true
			case "role":
				if cv.kind != vRole {
					return instr{}, true, true
				}
				return instr{op: opFieldEqImmJF, a: spec, b: int16(cv.n)}, false, true
			case "mod":
				if cv.kind == vNil {
					return instr{op: opFieldEqImmJF, a: spec, b: 0}, false, true
				}
				fallthrough
			default: // pos, or mod against an int
				if cv.kind != vInt {
					return instr{}, true, true
				}
				if cv.n < 1 || cv.n > maxImmPos {
					return instr{}, false, false // no exact immediate form
				}
				return instr{op: opFieldEqImmJF, a: spec, b: int16(cv.n)}, false, true
			}
		case "gt", "lt":
			if fieldClass(acc.fn) != 2 {
				return instr{}, true, true // vLabel/vRole are never ints
			}
			if cv.kind != vInt {
				return instr{}, true, true
			}
			if cv.n < 0 || cv.n > maxImmPos {
				return instr{}, false, false
			}
			op := opFieldGtImmJF
			if (t.op == "lt") != rev { // reversal flips the direction
				op = opFieldLtImmJF
			}
			return instr{op: op, a: spec, b: int16(cv.n)}, false, true
		}
		return instr{}, false, false
	}

	if t.op == "eq" {
		if acc, isChain := catChainField(a); isChain {
			if cv.kind != vCat {
				return instr{}, true, true // a cat chain yields vCat or vInvalid
			}
			if fieldClass(acc.fn) != 2 {
				return instr{}, true, true // (word (lab v)) is always invalid
			}
			return instr{op: opCatEqImmJF, a: accessSpec(acc), b: int16(cv.n)}, false, true
		}
	}
	return instr{}, false, false
}

// branch lowers predicate e in branch position: the emitted code jumps
// exactly when e's truthiness equals onTrue and falls through
// otherwise. Jump pcs are appended to patches for the caller to point
// at the branch target. It returns false when a leaf of e has no fused
// form.
func (cg *codegen) branch(e expr, onTrue bool, patches *[]int) bool {
	if v, ok := foldConst(e); ok {
		if v.truthy() == onTrue {
			*patches = append(*patches, cg.emitJump())
		}
		return true
	}

	switch t := e.(type) {
	case *logicExpr:
		switch t.op {
		case "not":
			return cg.branch(t.args[0], !onTrue, patches)
		case "and":
			if !onTrue {
				// Jump out as soon as any conjunct is false.
				for _, a := range t.args {
					if !cg.branch(a, false, patches) {
						return false
					}
				}
				return true
			}
			// onTrue: early conjuncts false → fall through past the
			// final jump; last conjunct true → take the branch.
			var skip []int
			for _, a := range t.args[:len(t.args)-1] {
				if !cg.branch(a, false, &skip) {
					return false
				}
			}
			if !cg.branch(t.args[len(t.args)-1], true, patches) {
				return false
			}
			cg.patchAll(skip)
			return true
		case "or":
			if onTrue {
				for _, a := range t.args {
					if !cg.branch(a, true, patches) {
						return false
					}
				}
				return true
			}
			var skip []int
			for _, a := range t.args[:len(t.args)-1] {
				if !cg.branch(a, true, &skip) {
					return false
				}
			}
			if !cg.branch(t.args[len(t.args)-1], false, patches) {
				return false
			}
			cg.patchAll(skip)
			return true
		}

	case *cmpExpr:
		if in, constFalse, ok := fuseCmp(t); ok {
			if constFalse {
				// Statically false (a kind mismatch): jump on !onTrue.
				if !onTrue {
					*patches = append(*patches, cg.emitJump())
				}
				return true
			}
			if onTrue {
				in.op++ // the JT form is enum-adjacent to the JF form
			}
			cg.code = append(cg.code, in)
			*patches = append(*patches, len(cg.code)-1)
			return true
		}
	}
	return false
}

func accessSpec(e *accessExpr) int16 {
	var spec int16
	switch e.fn {
	case "lab":
		spec = accLab
	case "mod":
		spec = accMod
	case "role":
		spec = accRole
	default:
		spec = accPos
	}
	if e.onY {
		spec |= accOnY
	}
	return spec
}

// compileProg lowers one compiled constraint to fused test-and-jump
// code, or returns nil when some leaf has no fused form or the program
// does not fit the int16 encoding (the constraint then stays on the
// AST interpreter). The program mirrors Constraint.Satisfied — return
// truthy(cons), unless the antecedent fails, in which case the
// constraint holds vacuously — lowered fully branch-directed:
//
//	[ante; false → RT]
//	[cons; false → RF]
//	RT: ret-true
//	RF: ret-false
func compileProg(c *Constraint) *Prog {
	cg := &codegen{}
	var toRT, toRF []int
	if !cg.branch(c.ante, false, &toRT) || !cg.branch(c.cons, false, &toRF) {
		return nil
	}
	cg.patchAll(toRT)
	cg.code = append(cg.code, instr{op: opRetTrue})
	cg.patchAll(toRF)
	cg.code = append(cg.code, instr{op: opRetFalse})
	if len(cg.code) > 1<<14 { // jump targets must fit the int16 operands
		return nil
	}
	code := fusePairs(cg.code)
	retSentinels(code)
	evalCompiled.Add(1)
	return &Prog{code: code}
}

// fusePairs is the peephole: two adjacent jump-if-false
// tests with the same target — one and-chain's conjuncts — collapse
// into a single pair superinstruction, halving dispatches on the
// dominant antecedent shapes ((eq (cat ...) C) then a role gate;
// (eq (lab x) L) then (eq (mod x) (pos y))). The second instruction
// must not itself be a jump target, and byte-packed immediates must
// fit (ids always do; positions past 255 stay unfused).
func fusePairs(code []instr) []instr {
	isTarget := make([]bool, len(code)+1)
	for _, in := range code {
		switch {
		case in.op.isTest():
			isTarget[in.c] = true
		case in.op == opJump:
			isTarget[in.a] = true
		}
	}
	out := make([]instr, 0, len(code))
	newPC := make([]int16, len(code)+1)
	for i := 0; i < len(code); i++ {
		newPC[i] = int16(len(out))
		in := code[i]
		if i+1 < len(code) && !isTarget[i+1] && code[i+1].c == in.c {
			if p, ok := pairOf(in, code[i+1]); ok {
				newPC[i+1] = int16(len(out))
				out = append(out, p)
				i++
				continue
			}
		}
		out = append(out, in)
	}
	newPC[len(code)] = int16(len(out))
	for k := range out {
		switch {
		case out[k].op.isTest():
			out[k].c = newPC[out[k].c]
		case out[k].op == opJump:
			out[k].a = newPC[out[k].a]
		}
	}
	return out
}

// pairOf combines two same-target JF tests into one pair
// superinstruction, when a supported encoding exists.
func pairOf(a, b instr) (instr, bool) {
	byteImms := a.b >= 0 && a.b <= 0xff && b.b >= 0 && b.b <= 0xff
	switch {
	case a.op == opFieldEqImmJF && b.op == opFieldEqImmJF && byteImms:
		return instr{op: opPairEqImmEqImmJF, a: a.a | b.a<<3, b: int16(uint16(a.b) | uint16(b.b)<<8), c: a.c}, true
	case a.op == opCatEqImmJF && b.op == opFieldEqImmJF && byteImms:
		return instr{op: opPairCatEqEqImmJF, a: a.a | b.a<<3, b: int16(uint16(a.b) | uint16(b.b)<<8), c: a.c}, true
	case a.op == opFieldEqImmJF && b.op == opFieldEqImmJT && byteImms:
		// eq followed by a branch-directed not(eq): continue only when
		// the first field matches and the second does not.
		return instr{op: opPairEqImmNeImmJF, a: a.a | b.a<<3, b: int16(uint16(a.b) | uint16(b.b)<<8), c: a.c}, true
	case a.op == opFieldEqImmJF && b.op == opFieldEqFieldJF:
		// b.a already packs two 3-bit specs; the pair keeps a's spec at
		// bits 0–2 and shifts b's pair up to bits 3–8.
		return instr{op: opPairEqImmEqFieldJF, a: a.a | b.a<<3, b: a.b, c: a.c}, true
	}
	return instr{}, false
}

// retSentinels replaces every jump target that resolves
// (through opJump chains) to a bare return with the verdict sentinels,
// so the taken branch of a fused test finishes the check without
// another dispatch. An opJump that itself targets a return becomes
// that return.
func retSentinels(code []instr) {
	resolve := func(t int16) int16 {
		for code[t].op == opJump {
			t = code[t].a
		}
		switch code[t].op {
		case opRetTrue:
			return retTrueTarget
		case opRetFalse:
			return retFalseTarget
		}
		return t
	}
	for k := range code {
		switch {
		case code[k].op.isTest():
			code[k].c = resolve(code[k].c)
		case code[k].op == opJump:
			if t := resolve(code[k].a); t == retTrueTarget {
				code[k] = instr{op: opRetTrue}
			} else if t == retFalseTarget {
				code[k] = instr{op: opRetFalse}
			} else {
				code[k].a = t
			}
		}
	}
}
