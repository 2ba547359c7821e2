package cdg

import "sync/atomic"

// This file is the execution half of the compiled constraint
// evaluator: a flat program of fused test-and-jump instructions per
// constraint, interpreted with no operand stack and zero heap traffic.
// The AST walker in eval.go remains the executable reference spec (the
// refscan.go precedent for the scan kernels): compileProg lowers the
// same expr tree the interpreter walks, or declines and leaves the
// constraint on the interpreter, and differential tests + the
// FuzzCompiledEvalMatchesAST target pin the two bit-equal. See
// DESIGN.md §13 for the ISA and the lowering rules.

// opcode enumerates the VM instruction set: control flow, then the
// fused test-and-jump superinstructions the lowering selects for the
// constraint shapes. Each fused test exists in a jump-if-false and
// jump-if-true form at ADJACENT enum values (JT == JF+1) — the
// lowering relies on that adjacency. Every opcode from opFieldEqImmJF
// on is a test carrying its jump target in c (see isTest).
type opcode uint8

const (
	opJump     opcode = iota // jump to a
	opRetTrue                // return true
	opRetFalse               // return false

	// Fused test-and-jump superinstructions. a carries the access spec
	// (plus, for FieldCmpField, the second spec and the comparison
	// code), b the immediate operand (a label/role/cat id, a position,
	// or a mod with 0 meaning nil), and c the jump target. The lowering
	// proves kind agreement at compile time (e.g. (eq (lab x) C) only
	// fuses when C is a label), so each test is a bare integer compare.
	opFieldEqImmJF   // if !(field(a) == b) jump to c
	opFieldEqImmJT   // if   field(a) == b  jump to c
	opFieldGtImmJF   // if !(field(a) > 0 && field(a) > b) jump to c
	opFieldGtImmJT   // ...
	opFieldLtImmJF   // if !(field(a) > 0 && field(a) < b) jump to c
	opFieldLtImmJT   // ...
	opFieldEqFieldJF // if !(field(a&7) == field((a>>3)&7)) jump to c
	opFieldEqFieldJT // ...
	opFieldGtFieldJF // both fields > 0 and left > right, else jump to c
	opFieldGtFieldJT // ...
	opFieldLtFieldJF // both fields > 0 and left < right, else jump to c
	opFieldLtFieldJT // ...
	opCatEqImmJF     // if !(cat of word at field(a) == b) jump to c
	opCatEqImmJT     // ...

	// Pair superinstructions, fabricated by the peephole (fusePairs):
	// two adjacent JF tests with the same target — the dominant
	// and-chain antecedent shapes — collapsed into one dispatch. JF-form
	// only. lo/hi are the bytes of b.
	opPairEqImmEqImmJF   // if !(field(a&7)==lo(b) && field((a>>3)&7)==hi(b)) jump to c
	opPairCatEqEqImmJF   // if !(cat(word(field(a&7)))==lo(b) && field((a>>3)&7)==hi(b)) jump to c
	opPairEqImmEqFieldJF // if !(field(a&7)==b && field((a>>3)&7)==field((a>>6)&7)) jump to c
	opPairEqImmNeImmJF   // if !(field(a&7)==lo(b) && field((a>>3)&7)!=hi(b)) jump to c
)

// isTest reports whether op is a fused test, whose jump target is in c.
func (op opcode) isTest() bool { return op >= opFieldEqImmJF }

// Negative jump targets are verdicts, not addresses: the loop finishes
// the check on the taken branch without dispatching a separate return
// instruction (retSentinels installs them wherever a jump resolves to
// a bare return).
const (
	retTrueTarget  = -1
	retFalseTarget = -2
)

// Access spec layout in instr.a: bits 0–1 select the field, bit 2
// selects the variable. The FieldCmpField family packs its second
// spec at bits 3–5.
const (
	accLab  = 0
	accMod  = 1
	accRole = 2
	accPos  = 3

	accFieldMask = 3
	accOnY       = 1 << 2
)

// instr is one VM instruction: an opcode plus up to three small
// operands (access specs, immediates, jump targets), packed into 8
// bytes so the fetch in the hot loop is a single load. compileProg
// falls back to the AST interpreter for any program whose operands
// would not fit the int16 encoding.
type instr struct {
	op      opcode
	a, b, c int16
}

// maxImmPos bounds the sentence length under which the immediate
// field-compare superinstructions are exact: positions and modifiee
// values must fit the int16 immediates. Bind falls back to the AST
// interpreter for longer sentences.
const maxImmPos = 1<<14 - 1

// Prog is one constraint's compiled form: its fused test-and-jump
// code.
type Prog struct {
	code []instr
}

// evalUseAST, when set, makes every Bind fall back to the AST
// interpreter — the switch the differential tests and fuzz target use
// to run identical workloads through both evaluators.
var evalUseAST atomic.Bool

// SetEvalUseAST forces (or stops forcing) all subsequent Bind calls to
// evaluate through the AST reference interpreter instead of the
// compiled program. It returns the previous setting. Testing hook: the
// compiled path is the default.
func SetEvalUseAST(on bool) bool { return evalUseAST.Swap(on) }

// evalCompiled counts the constraints lowered to a flat program,
// exported to the serving layer as parsecd_eval_compiled_total.
var evalCompiled atomic.Uint64

// EvalCacheStats reports the number of constraints lowered to a flat
// program since process start.
func EvalCacheStats() (compiled uint64) {
	return evalCompiled.Load()
}

// Checker evaluates one constraint against one sentence. A bound
// Checker is safe for concurrent use: evaluation state lives on the
// caller's stack. The RVRefs passed to Check1/Check2 must belong to the
// bound sentence (positions and modifiees within 1..n), which every
// propagation loop guarantees by construction.
type Checker struct {
	c    *Constraint
	prog *Prog
	sent *Sentence
}

// Bind prepares c for repeated evaluation against sent. When the
// constraint has no compiled program — or SetEvalUseAST is in force,
// or the sentence is too long for the int16 immediates — the Checker
// transparently falls back to the AST interpreter.
//
//parsec:noalloc
func (c *Constraint) Bind(sent *Sentence) Checker {
	ck := Checker{c: c, sent: sent}
	if p := c.prog; p != nil && !evalUseAST.Load() && len(sent.words) <= maxImmPos {
		ck.prog = p
	}
	return ck
}

// Compiled reports whether this checker runs the compiled program
// (false: AST reference interpreter fallback).
func (ck *Checker) Compiled() bool { return ck.prog != nil }

// Check1 reports whether the bound unary constraint holds for role
// value x. Verdicts are bit-equal to Constraint.Satisfied.
func (ck *Checker) Check1(x RVRef) bool {
	if p := ck.prog; p != nil {
		xs := [1]RVRef{x}
		var out [1]bool
		runFlatSpan(p.code, ck.sent, RVRef{}, xs[:], out[:], false)
		return out[0]
	}
	return ck.checkAST(x, RVRef{})
}

// Check2 reports whether the bound binary constraint holds for the
// ordered pair (x, y). Verdicts are bit-equal to Constraint.Satisfied.
func (ck *Checker) Check2(x, y RVRef) bool {
	if p := ck.prog; p != nil {
		ys := [1]RVRef{y}
		var out [1]bool
		runFlatSpan(p.code, ck.sent, x, ys[:], out[:], true)
		return out[0]
	}
	return ck.checkAST(x, y)
}

// Check1Span evaluates the bound unary constraint on every role value
// of xs, writing Check1(xs[i]) into out[i]. The batch form is what the
// propagation inner loops call: the compiled loop runs across the
// whole span in one call, so the per-check cost is a handful of fused
// test-and-jump dispatches with no per-check call overhead.
func (ck *Checker) Check1Span(xs []RVRef, out []bool) {
	if p := ck.prog; p != nil {
		runFlatSpan(p.code, ck.sent, RVRef{}, xs, out, false)
		return
	}
	for i, x := range xs {
		out[i] = ck.checkAST(x, RVRef{})
	}
}

// Check2Span evaluates the bound binary constraint on the ordered
// pairs (x, ys[i]), writing Check2(x, ys[i]) into out[i].
func (ck *Checker) Check2Span(x RVRef, ys []RVRef, out []bool) {
	if p := ck.prog; p != nil {
		runFlatSpan(p.code, ck.sent, x, ys, out, true)
		return
	}
	for i, y := range ys {
		out[i] = ck.checkAST(x, y)
	}
}

// Check2SpanRev evaluates the reversed orientation: out[i] =
// Check2(ys[i], y) — the second direction of the both-ways pair test
// every binary propagation performs.
func (ck *Checker) Check2SpanRev(y RVRef, ys []RVRef, out []bool) {
	if p := ck.prog; p != nil {
		runFlatSpan(p.code, ck.sent, y, ys, out, false)
		return
	}
	for i, x := range ys {
		out[i] = ck.checkAST(x, y)
	}
}

// checkAST is the uncompiled path of Check1/Check2: the AST reference
// interpreter.
func (ck *Checker) checkAST(x, y RVRef) bool {
	env := Env{Sent: ck.sent, X: x, Y: y}
	return ck.c.Satisfied(&env)
}

// runFlatSpan executes a compiled program — once per element of span,
// against a fixed partner role value. No operand stack exists, so each
// evaluation is a bare fetch/test/branch sequence, and batching the
// sweep into one call removes the per-check call overhead that
// otherwise rivals the evaluation itself. This is the steady-state
// path for every grammar constraint in the repo but one —
// compileProg's branch-directed lowering leaves nothing but fused
// tests for and/or/not trees over the comparison shapes — and the
// access pattern of every propagation loop (one role value against
// a domain's live set).
//
// fixedIsX selects the pair orientation: true evaluates (fixed,
// span[i]), false evaluates (span[i], fixed). Unary spans pass a zero
// fixed with fixedIsX=false.
//
// The orientation is folded into the access specs rather than the
// operands: XOR-ing accOnY into every field select redirects x-reads
// to the span element and y-reads to the fixed value (or vice versa),
// so the loop never copies or swaps the 32-byte role values per
// element — which profiling showed would otherwise dominate it.
//
// The first instruction is specialized: when it is a fused test whose
// taken branch is already a verdict sentinel — the compiled antecedent
// of every grammar constraint — the sweep runs that test straight-line
// with no dispatch at all, and only the elements that survive it enter
// the general interpreter (flatOne). Most checks in a propagation
// sweep fail the antecedent, so the common case costs a few loads and
// compares per element.
//
//parsec:noalloc
func runFlatSpan(code []instr, sent *Sentence, fixed RVRef, span []RVRef, out []bool, fixedIsX bool) {
	flip := int16(0)
	if !fixedIsX {
		flip = accOnY
	}
	flip2 := flip | flip<<3
	flip3 := flip2 | flip<<6
	if in0 := code[0]; in0.c < 0 {
		v := in0.c == retTrueTarget
		switch in0.op {
		case opFieldEqImmJF:
			sa := in0.a ^ flip
			if sa&accOnY == 0 {
				// The test reads only the fixed role value: one
				// evaluation decides the taken branch for the whole
				// sweep. In forward binary sweeps the antecedent's
				// gate reads x — the fixed side — so most rows are
				// verdict-filled here at copy speed.
				if fieldImm(sa, &fixed, &fixed) != in0.b {
					fillBool(out, v)
					return
				}
				for i := range span {
					out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3)
				}
				return
			}
			for i := range span {
				el := &span[i]
				if fieldImm(sa, &fixed, el) != in0.b {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
				}
			}
			return
		case opCatEqImmJF:
			sa := in0.a ^ flip
			if sa&accOnY == 0 {
				if !catEqImm(sa, in0.b, sent, &fixed, &fixed) {
					fillBool(out, v)
					return
				}
				for i := range span {
					out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3)
				}
				return
			}
			cats := sent.cats
			for i := range span {
				el := &span[i]
				m := fieldImm(sa, &fixed, el)
				if m < 1 || int(m) > len(cats) || cats[m-1] != CatID(in0.b) {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
				}
			}
			return
		case opPairEqImmEqImmJF, opPairEqImmNeImmJF:
			sa := in0.a ^ flip2
			lo, hi := int16(uint16(in0.b)&0xff), int16(uint16(in0.b)>>8)
			ne := in0.op == opPairEqImmNeImmJF
			s1, s2 := sa&7, (sa>>3)&7
			if s1&accOnY == 0 {
				if fieldImm(s1, &fixed, &fixed) != lo {
					fillBool(out, v)
					return
				}
				// First conjunct hoisted true: the row reduces to the
				// second test alone.
				if s2&accOnY == 0 {
					if (fieldImm(s2, &fixed, &fixed) == hi) == ne {
						fillBool(out, v)
						return
					}
					for i := range span {
						out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3)
					}
					return
				}
				for i := range span {
					el := &span[i]
					if (fieldImm(s2, &fixed, el) == hi) == ne {
						out[i] = v
					} else {
						out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
					}
				}
				return
			}
			for i := range span {
				el := &span[i]
				if fieldImm(s1, &fixed, el) != lo || (fieldImm(s2, &fixed, el) == hi) == ne {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
				}
			}
			return
		case opPairCatEqEqImmJF:
			sa := in0.a ^ flip2
			lo, hi := int16(uint16(in0.b)&0xff), int16(uint16(in0.b)>>8)
			s1, s2 := sa&7, (sa>>3)&7
			if s1&accOnY == 0 && s2&accOnY == 0 {
				if !catEqImm(s1, lo, sent, &fixed, &fixed) || fieldImm(s2, &fixed, &fixed) != hi {
					fillBool(out, v)
					return
				}
				for i := range span {
					out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3)
				}
				return
			}
			cats := sent.cats
			// Second-level specialization for the steady-state unary
			// shape: the consequent's lab/mod gate is itself a fused
			// pair with verdict-sentinel targets, so the whole
			// constraint runs straight-line. When the program ends in
			// a fall-through return right after it, even the survivors
			// never reach the interpreter.
			if in1 := code[1]; in1.c < 0 &&
				(in1.op == opPairEqImmEqImmJF || in1.op == opPairEqImmNeImmJF) {
				v1 := in1.c == retTrueTarget
				sb := in1.a ^ flip2
				t1, t2 := sb&7, (sb>>3)&7
				lo1, hi1 := int16(uint16(in1.b)&0xff), int16(uint16(in1.b)>>8)
				ne := in1.op == opPairEqImmNeImmJF
				done := len(code) > 2 && code[2].op == opRetTrue
				// The field selects are loop-invariant, but fieldImm
				// still switches on them per element; when all four
				// name the grammar's canonical unary fields — cat of
				// the element's own position and role in the
				// antecedent, label and modifiee in the consequent —
				// load the struct fields directly.
				if s1 == accPos|accOnY && s2 == accRole|accOnY &&
					t1 == accLab|accOnY && t2 == accMod|accOnY {
					for i := range span {
						el := &span[i]
						if p := el.Pos; p < 1 || p > len(cats) || cats[p-1] != CatID(lo) ||
							int16(el.Role) != hi {
							out[i] = v
						} else if int16(el.Lab) != lo1 || (int16(el.Mod) == hi1) == ne {
							out[i] = v1
						} else if done {
							out[i] = true
						} else {
							out[i] = flatOne(code, 2, sent, &fixed, el, flip, flip2, flip3)
						}
					}
					return
				}
				for i := range span {
					el := &span[i]
					if m := fieldImm(s1, &fixed, el); m < 1 || int(m) > len(cats) ||
						cats[m-1] != CatID(lo) || fieldImm(s2, &fixed, el) != hi {
						out[i] = v
					} else if fieldImm(t1, &fixed, el) != lo1 || (fieldImm(t2, &fixed, el) == hi1) == ne {
						out[i] = v1
					} else if done {
						out[i] = true
					} else {
						out[i] = flatOne(code, 2, sent, &fixed, el, flip, flip2, flip3)
					}
				}
				return
			}
			for i := range span {
				el := &span[i]
				m := fieldImm(s1, &fixed, el)
				if m < 1 || int(m) > len(cats) || cats[m-1] != CatID(lo) ||
					fieldImm(s2, &fixed, el) != hi {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
				}
			}
			return
		case opPairEqImmEqFieldJF:
			sa := in0.a ^ flip3
			s1, s2, s3 := sa&7, (sa>>3)&7, (sa>>6)&7
			if s1&accOnY == 0 {
				if fieldImm(s1, &fixed, &fixed) != in0.b {
					fillBool(out, v)
					return
				}
				if s3&accOnY == 0 {
					s2, s3 = s3, s2 // eq is symmetric; keep any fixed side in s2
				}
				if s2&accOnY == 0 {
					m := fieldImm(s2, &fixed, &fixed)
					for i := range span {
						el := &span[i]
						if m != fieldImm(s3, &fixed, el) {
							out[i] = v
						} else {
							out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
						}
					}
					return
				}
			}
			for i := range span {
				el := &span[i]
				if fieldImm(s1, &fixed, el) != in0.b ||
					fieldImm(s2, &fixed, el) != fieldImm(s3, &fixed, el) {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3)
				}
			}
			return
		}
	}
	for i := range span {
		out[i] = flatOne(code, 0, sent, &fixed, &span[i], flip, flip2, flip3)
	}
}

// fillBool writes one verdict across a whole sweep — the row-fill path
// runFlatSpan takes when a fixed-side test decides every element. It
// fills by doubling copies, so the work runs in the runtime's memmove
// rather than in a byte loop inlined into runFlatSpan, whose speed
// moved with where the compiler happened to place it.
//
//parsec:noalloc
func fillBool(out []bool, v bool) {
	if len(out) == 0 {
		return
	}
	out[0] = v
	for k := 1; k < len(out); k *= 2 {
		copy(out[k:], out[:k])
	}
}

// flatOne interprets a program for one role-value pair, from pc
// onward (runFlatSpan enters at 1 when it has already executed the
// specialized first instruction).
//
//parsec:noalloc
func flatOne(code []instr, pc int, sent *Sentence, fixed, el *RVRef, flip, flip2, flip3 int16) bool {
	for {
		in := code[pc]
		taken := false
		switch in.op {
		case opFieldEqImmJF:
			taken = fieldImm(in.a^flip, fixed, el) != in.b
		case opFieldEqImmJT:
			taken = fieldImm(in.a^flip, fixed, el) == in.b
		case opFieldGtImmJF:
			m := fieldImm(in.a^flip, fixed, el)
			taken = !(m > 0 && m > in.b)
		case opFieldGtImmJT:
			m := fieldImm(in.a^flip, fixed, el)
			taken = m > 0 && m > in.b
		case opFieldLtImmJF:
			m := fieldImm(in.a^flip, fixed, el)
			taken = !(m > 0 && m < in.b)
		case opFieldLtImmJT:
			m := fieldImm(in.a^flip, fixed, el)
			taken = m > 0 && m < in.b
		case opFieldEqFieldJF:
			sa := in.a ^ flip2
			taken = fieldImm(sa&7, fixed, el) != fieldImm((sa>>3)&7, fixed, el)
		case opFieldEqFieldJT:
			sa := in.a ^ flip2
			taken = fieldImm(sa&7, fixed, el) == fieldImm((sa>>3)&7, fixed, el)
		case opFieldGtFieldJF:
			sa := in.a ^ flip2
			l, r := fieldImm(sa&7, fixed, el), fieldImm((sa>>3)&7, fixed, el)
			taken = !(l > 0 && r > 0 && l > r)
		case opFieldGtFieldJT:
			sa := in.a ^ flip2
			l, r := fieldImm(sa&7, fixed, el), fieldImm((sa>>3)&7, fixed, el)
			taken = l > 0 && r > 0 && l > r
		case opFieldLtFieldJF:
			sa := in.a ^ flip2
			l, r := fieldImm(sa&7, fixed, el), fieldImm((sa>>3)&7, fixed, el)
			taken = !(l > 0 && r > 0 && l < r)
		case opFieldLtFieldJT:
			sa := in.a ^ flip2
			l, r := fieldImm(sa&7, fixed, el), fieldImm((sa>>3)&7, fixed, el)
			taken = l > 0 && r > 0 && l < r
		case opCatEqImmJF:
			taken = !catEqImm(in.a^flip, in.b, sent, fixed, el)
		case opCatEqImmJT:
			taken = catEqImm(in.a^flip, in.b, sent, fixed, el)
		case opPairEqImmEqImmJF:
			sa := in.a ^ flip2
			taken = fieldImm(sa&7, fixed, el) != int16(uint16(in.b)&0xff) ||
				fieldImm((sa>>3)&7, fixed, el) != int16(uint16(in.b)>>8)
		case opPairCatEqEqImmJF:
			sa := in.a ^ flip2
			taken = !catEqImm(sa&7, int16(uint16(in.b)&0xff), sent, fixed, el) ||
				fieldImm((sa>>3)&7, fixed, el) != int16(uint16(in.b)>>8)
		case opPairEqImmEqFieldJF:
			sa := in.a ^ flip3
			taken = fieldImm(sa&7, fixed, el) != in.b ||
				fieldImm((sa>>3)&7, fixed, el) != fieldImm((sa>>6)&7, fixed, el)
		case opPairEqImmNeImmJF:
			sa := in.a ^ flip2
			taken = fieldImm(sa&7, fixed, el) != int16(uint16(in.b)&0xff) ||
				fieldImm((sa>>3)&7, fixed, el) == int16(uint16(in.b)>>8)
		case opJump:
			pc = int(in.a)
			continue
		case opRetTrue:
			return true
		default: // opRetFalse
			return false
		}
		if taken {
			if in.c < 0 {
				return in.c == retTrueTarget
			}
			pc = int(in.c)
			continue
		}
		pc++
	}
}

// fieldImm reads one role-value field as a bare int16 for the
// immediate superinstructions: labels, roles, and positions map to
// their ids, and a nil modifiee maps to 0 (NilMod) — which can never
// equal a real position or survive a > 0 guard, mirroring the
// interpreter's vNil semantics. Exact because Bind rejects sentences
// longer than maxImmPos.
//
//parsec:noalloc
func fieldImm(spec int16, x, y *RVRef) int16 {
	rv := x
	if spec&accOnY != 0 {
		rv = y
	}
	switch spec & accFieldMask {
	case accLab:
		return int16(rv.Lab)
	case accMod:
		return int16(rv.Mod)
	case accRole:
		return int16(rv.Role)
	}
	return int16(rv.Pos)
}

// catEqImm fuses (eq (cat (word (FIELD v))) CAT): a nil or
// out-of-range position makes word/cat produce vInvalid, which
// compares unequal to everything — exactly the interpreter's
// propagation, collapsed to a bounds check and a byte compare.
//
//parsec:noalloc
func catEqImm(spec, imm int16, sent *Sentence, x, y *RVRef) bool {
	m := fieldImm(spec, x, y)
	return m >= 1 && int(m) <= len(sent.cats) && sent.cats[m-1] == CatID(imm)
}
