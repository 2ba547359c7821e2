package cdg

import "sync/atomic"

// This file is the execution half of the compiled constraint
// evaluator: a flat bytecode program per constraint, interpreted over
// a fixed-size operand stack with zero heap traffic. The AST walker in
// eval.go remains the executable reference spec (the refscan.go
// precedent for the scan kernels): compileProg lowers the same expr
// tree the interpreter walks, and differential tests + the
// FuzzCompiledEvalMatchesAST target pin the two bit-equal. See
// DESIGN.md §13 for the ISA and the lowering rules.

// opcode enumerates the VM instruction set. The first group mirrors
// the expr node kinds one-to-one; the second group is control flow;
// the last group is the fused test-and-jump superinstructions the
// lowering selects for the dominant constraint shapes. Each fused test
// exists in a jump-if-false and jump-if-true form at ADJACENT enum
// values (JT == JF+1) — the lowering relies on that adjacency.
type opcode uint8

const (
	opConst         opcode = iota // push consts[a]
	opSlot                        // push slots[a] (sentence-invariant prologue value)
	opAccess                      // push field a of the bound role value (see access spec)
	opWord                        // pop p; push the word value at position p
	opCat                         // pop w; push the category of word w
	opEq                          // pop b, a; push (eq a b)
	opGt                          // pop b, a; push (gt a b)
	opLt                          // pop b, a; push (lt a b)
	opJumpNotTruthy               // pop v; if !truthy(v) jump to a
	opJumpTruthy                  // pop v; if truthy(v) jump to a
	opJump                        // jump to a
	opStoreSlot                   // pop v; slots[a] = v (prologue only)
	opRetTrue                     // return true
	opRetFalse                    // return false

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
	opSlotJF         // if !truthy(slots[a]) jump to c
	opSlotJT         // if  truthy(slots[a]) jump to c

	// Pair superinstructions, fabricated by the flat-program peephole
	// (fusePairs): two adjacent JF tests with the same target — the
	// dominant and-chain antecedent shapes — collapsed into one
	// dispatch. JF-form only, and only inside flat programs, so
	// runProg never executes them. lo/hi are the bytes of b.
	opPairEqImmEqImmJF   // if !(field(a&7)==lo(b) && field((a>>3)&7)==hi(b)) jump to c
	opPairCatEqEqImmJF   // if !(cat(word(field(a&7)))==lo(b) && field((a>>3)&7)==hi(b)) jump to c
	opPairEqImmEqFieldJF // if !(field(a&7)==b && field((a>>3)&7)==field((a>>6)&7)) jump to c
	opPairEqImmNeImmJF   // if !(field(a&7)==lo(b) && field((a>>3)&7)!=hi(b)) jump to c
)

// Negative jump targets in flat programs are verdicts, not addresses:
// the flat loop finishes the check on the taken branch without
// dispatching a separate return instruction (retSentinels installs
// them wherever a jump resolves to a bare return).
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
// operands (pool indices, access specs, immediates, jump targets),
// packed into 8 bytes so the fetch in the hot loop is a single load.
// compileProg falls back to the AST interpreter for any program whose
// operands would not fit the int16 encoding.
type instr struct {
	op      opcode
	a, b, c int16
}

// Compiled programs run over fixed-size scratch so the hot loop never
// allocates. Constraints that exceed either bound (none of the paper's
// do; a pathological fuzz grammar might) simply keep prog == nil and
// evaluate through the AST reference interpreter.
//
// maxImmPos bounds the sentence length under which the immediate
// field-compare superinstructions are exact: positions and modifiee
// values must fit the int16 immediates. Bind falls back to the AST
// interpreter for longer sentences.
const (
	maxEvalStack = 16
	maxEvalSlots = 8
	maxImmPos    = 1<<14 - 1
)

// Prog is one constraint's compiled form: the body bytecode, the
// prologue that fills the sentence-invariant slot table once per
// Bind, and the shared constant pool. flat marks bodies lowered
// entirely to fused test-and-jump instructions — the common case —
// which run through the stackless fast loop.
type Prog struct {
	code     []instr
	pro      []instr
	consts   []value
	numSlots int
	maxStack int
	flat     bool
}

// evalUseAST, when set, makes every Bind fall back to the AST
// interpreter — the switch the differential tests and fuzz target use
// to run identical workloads through both evaluators.
var evalUseAST atomic.Bool

// SetEvalUseAST forces (or stops forcing) all subsequent Bind calls to
// evaluate through the AST reference interpreter instead of the
// bytecode VM. It returns the previous setting. Testing hook: the
// compiled path is the default.
func SetEvalUseAST(on bool) bool { return evalUseAST.Swap(on) }

// evalCompiled counts the constraints lowered to bytecode, exported to
// the serving layer as parsecd_eval_compiled_total.
var evalCompiled atomic.Uint64

// EvalCacheStats reports the number of constraints lowered to bytecode
// since process start.
func EvalCacheStats() (compiled uint64) {
	return evalCompiled.Load()
}

// Checker evaluates one constraint against one sentence. Bind fills
// the sentence-invariant slot table once; Check1/Check2 then cost only
// the per-role-value residue. A bound Checker is safe for concurrent
// use: evaluation state lives on the caller's stack. The RVRefs passed
// to Check1/Check2 must belong to the bound sentence (positions and
// modifiees within 1..n), which every propagation loop guarantees by
// construction.
type Checker struct {
	c     *Constraint
	prog  *Prog
	sent  *Sentence
	slots [maxEvalSlots]value
}

// Bind prepares c for repeated evaluation against sent: the compiled
// prologue pre-evaluates every hoisted sentence-only subexpression
// (e.g. (word N), (cat (word N))) into the slot table. When the
// constraint has no compiled program — or SetEvalUseAST is in force,
// or the sentence is too long for the int16 immediates — the Checker
// transparently falls back to the AST interpreter.
//
//parsec:noalloc
func (c *Constraint) Bind(sent *Sentence) Checker {
	ck := Checker{c: c, sent: sent}
	if p := c.prog; p != nil && !evalUseAST.Load() && len(sent.words) <= maxImmPos {
		ck.prog = p
		if len(p.pro) > 0 {
			runProg(p.pro, p.consts, sent, RVRef{}, RVRef{}, &ck.slots)
		}
	}
	return ck
}

// Compiled reports whether this checker runs bytecode (false: AST
// reference interpreter fallback).
func (ck *Checker) Compiled() bool { return ck.prog != nil }

// Check1 reports whether the bound unary constraint holds for role
// value x. Verdicts are bit-equal to Constraint.Satisfied.
func (ck *Checker) Check1(x RVRef) bool {
	if p := ck.prog; p != nil && p.flat {
		xs := [1]RVRef{x}
		var out [1]bool
		runFlatSpan(p.code, ck.sent, RVRef{}, xs[:], out[:], false, &ck.slots)
		return out[0]
	}
	return ck.checkSlow(x, RVRef{})
}

// Check2 reports whether the bound binary constraint holds for the
// ordered pair (x, y). Verdicts are bit-equal to Constraint.Satisfied.
func (ck *Checker) Check2(x, y RVRef) bool {
	if p := ck.prog; p != nil && p.flat {
		ys := [1]RVRef{y}
		var out [1]bool
		runFlatSpan(p.code, ck.sent, x, ys[:], out[:], true, &ck.slots)
		return out[0]
	}
	return ck.checkSlow(x, y)
}

// Check1Span evaluates the bound unary constraint on every role value
// of xs, writing Check1(xs[i]) into out[i]. The batch form is what the
// propagation inner loops call: the bytecode loop runs across the
// whole span in one call, so the per-check cost is a handful of fused
// test-and-jump dispatches with no per-check call overhead.
func (ck *Checker) Check1Span(xs []RVRef, out []bool) {
	if p := ck.prog; p != nil && p.flat {
		runFlatSpan(p.code, ck.sent, RVRef{}, xs, out, false, &ck.slots)
		return
	}
	for i, x := range xs {
		out[i] = ck.checkSlow(x, RVRef{})
	}
}

// Check2Span evaluates the bound binary constraint on the ordered
// pairs (x, ys[i]), writing Check2(x, ys[i]) into out[i].
func (ck *Checker) Check2Span(x RVRef, ys []RVRef, out []bool) {
	if p := ck.prog; p != nil && p.flat {
		runFlatSpan(p.code, ck.sent, x, ys, out, true, &ck.slots)
		return
	}
	for i, y := range ys {
		out[i] = ck.checkSlow(x, y)
	}
}

// Check2SpanRev evaluates the reversed orientation: out[i] =
// Check2(ys[i], y) — the second direction of the both-ways pair test
// every binary propagation performs.
func (ck *Checker) Check2SpanRev(y RVRef, ys []RVRef, out []bool) {
	if p := ck.prog; p != nil && p.flat {
		runFlatSpan(p.code, ck.sent, y, ys, out, false, &ck.slots)
		return
	}
	for i, x := range ys {
		out[i] = ck.checkSlow(x, y)
	}
}

// checkSlow is the non-flat residue of Check1/Check2: stack-machine
// programs, and the AST reference interpreter when the constraint has
// no compiled program at all.
func (ck *Checker) checkSlow(x, y RVRef) bool {
	p := ck.prog
	if p == nil {
		env := Env{Sent: ck.sent, X: x, Y: y}
		return ck.c.Satisfied(&env)
	}
	return runProg(p.code, p.consts, ck.sent, x, y, &ck.slots).truthy()
}

// runFlatSpan executes a body lowered entirely to fused test-and-jump
// instructions — once per element of span, against a fixed partner
// role value. No operand stack exists, so each evaluation is a bare
// fetch/test/branch sequence, and batching the sweep into one call
// removes the per-check call overhead that otherwise rivals the
// evaluation itself. This is the steady-state path for every grammar
// constraint in the repo — compileProg's branch-directed lowering
// leaves nothing but fused tests for and/or/not trees over the
// comparison shapes — and the access pattern of every propagation
// driver (one role value against a domain's live set).
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
func runFlatSpan(code []instr, sent *Sentence, fixed RVRef, span []RVRef, out []bool, fixedIsX bool, slots *[maxEvalSlots]value) {
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
					out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3, slots)
				}
				return
			}
			for i := range span {
				el := &span[i]
				if fieldImm(sa, &fixed, el) != in0.b {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
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
					out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3, slots)
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
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
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
						out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3, slots)
					}
					return
				}
				for i := range span {
					el := &span[i]
					if (fieldImm(s2, &fixed, el) == hi) == ne {
						out[i] = v
					} else {
						out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
					}
				}
				return
			}
			for i := range span {
				el := &span[i]
				if fieldImm(s1, &fixed, el) != lo || (fieldImm(s2, &fixed, el) == hi) == ne {
					out[i] = v
				} else {
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
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
					out[i] = flatOne(code, 1, sent, &fixed, &span[i], flip, flip2, flip3, slots)
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
							out[i] = flatOne(code, 2, sent, &fixed, el, flip, flip2, flip3, slots)
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
						out[i] = flatOne(code, 2, sent, &fixed, el, flip, flip2, flip3, slots)
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
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
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
							out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
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
					out[i] = flatOne(code, 1, sent, &fixed, el, flip, flip2, flip3, slots)
				}
			}
			return
		}
	}
	for i := range span {
		out[i] = flatOne(code, 0, sent, &fixed, &span[i], flip, flip2, flip3, slots)
	}
}

// fillBool writes one verdict across a whole sweep — the row-fill path
// runFlatSpan takes when a fixed-side test decides every element.
//
//parsec:noalloc
func fillBool(out []bool, v bool) {
	for i := range out {
		out[i] = v
	}
}

// flatOne interprets a flat program for one role-value pair, from pc
// onward (runFlatSpan enters at 1 when it has already executed the
// specialized first instruction).
//
//parsec:noalloc
func flatOne(code []instr, pc int, sent *Sentence, fixed, el *RVRef, flip, flip2, flip3 int16, slots *[maxEvalSlots]value) bool {
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
		case opSlotJF:
			taken = !slots[in.a].truthy()
		case opSlotJT:
			taken = slots[in.a].truthy()
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

// runProg executes one bytecode segment (a non-flat body or a
// prologue). The operand stack is a local fixed array — compileProg
// rejects programs deeper than maxEvalStack — so steady-state
// evaluation performs zero heap allocations and the function is safe
// to call concurrently.
//
//parsec:noalloc
func runProg(code []instr, consts []value, sent *Sentence, x, y RVRef, slots *[maxEvalSlots]value) value {
	var stack [maxEvalStack]value
	sp := 0
	pc := 0
	for {
		in := code[pc]
		switch in.op {
		case opConst:
			stack[sp] = consts[in.a]
			sp++
		case opSlot:
			stack[sp] = slots[in.a]
			sp++
		case opAccess:
			stack[sp] = accessField(in.a, x, y)
			sp++
		case opWord:
			v := stack[sp-1]
			if v.kind != vInt || v.n < 1 || v.n > int64(len(sent.words)) {
				stack[sp-1] = valInvalid
			} else {
				stack[sp-1] = value{kind: vWord, n: v.n}
			}
		case opCat:
			v := stack[sp-1]
			if v.kind != vWord || v.n < 1 || v.n > int64(len(sent.cats)) {
				stack[sp-1] = valInvalid
			} else {
				stack[sp-1] = value{kind: vCat, n: int64(sent.cats[v.n-1])}
			}
		case opEq:
			sp--
			stack[sp-1] = boolVal(eqValsSent(sent, stack[sp-1], stack[sp]))
		case opGt:
			sp--
			a, b := stack[sp-1], stack[sp]
			stack[sp-1] = boolVal(a.kind == vInt && b.kind == vInt && a.n > b.n)
		case opLt:
			sp--
			a, b := stack[sp-1], stack[sp]
			stack[sp-1] = boolVal(a.kind == vInt && b.kind == vInt && a.n < b.n)
		case opJumpNotTruthy:
			sp--
			if !stack[sp].truthy() {
				pc = int(in.a)
				continue
			}
		case opJumpTruthy:
			sp--
			if stack[sp].truthy() {
				pc = int(in.a)
				continue
			}
		case opJump:
			pc = int(in.a)
			continue
		case opStoreSlot:
			sp--
			slots[in.a] = stack[sp]
		case opRetTrue:
			return valTrue
		case opRetFalse:
			return valFalse
		case opFieldEqImmJF:
			if fieldImm(in.a, &x, &y) != in.b {
				pc = int(in.c)
				continue
			}
		case opFieldEqImmJT:
			if fieldImm(in.a, &x, &y) == in.b {
				pc = int(in.c)
				continue
			}
		case opFieldGtImmJF:
			if m := fieldImm(in.a, &x, &y); !(m > 0 && m > in.b) {
				pc = int(in.c)
				continue
			}
		case opFieldGtImmJT:
			if m := fieldImm(in.a, &x, &y); m > 0 && m > in.b {
				pc = int(in.c)
				continue
			}
		case opFieldLtImmJF:
			if m := fieldImm(in.a, &x, &y); !(m > 0 && m < in.b) {
				pc = int(in.c)
				continue
			}
		case opFieldLtImmJT:
			if m := fieldImm(in.a, &x, &y); m > 0 && m < in.b {
				pc = int(in.c)
				continue
			}
		case opFieldEqFieldJF:
			if fieldImm(in.a&7, &x, &y) != fieldImm((in.a>>3)&7, &x, &y) {
				pc = int(in.c)
				continue
			}
		case opFieldEqFieldJT:
			if fieldImm(in.a&7, &x, &y) == fieldImm((in.a>>3)&7, &x, &y) {
				pc = int(in.c)
				continue
			}
		case opFieldGtFieldJF:
			l, r := fieldImm(in.a&7, &x, &y), fieldImm((in.a>>3)&7, &x, &y)
			if !(l > 0 && r > 0 && l > r) {
				pc = int(in.c)
				continue
			}
		case opFieldGtFieldJT:
			l, r := fieldImm(in.a&7, &x, &y), fieldImm((in.a>>3)&7, &x, &y)
			if l > 0 && r > 0 && l > r {
				pc = int(in.c)
				continue
			}
		case opFieldLtFieldJF:
			l, r := fieldImm(in.a&7, &x, &y), fieldImm((in.a>>3)&7, &x, &y)
			if !(l > 0 && r > 0 && l < r) {
				pc = int(in.c)
				continue
			}
		case opFieldLtFieldJT:
			l, r := fieldImm(in.a&7, &x, &y), fieldImm((in.a>>3)&7, &x, &y)
			if l > 0 && r > 0 && l < r {
				pc = int(in.c)
				continue
			}
		case opCatEqImmJF:
			if !catEqImm(in.a, in.b, sent, &x, &y) {
				pc = int(in.c)
				continue
			}
		case opCatEqImmJT:
			if catEqImm(in.a, in.b, sent, &x, &y) {
				pc = int(in.c)
				continue
			}
		case opSlotJF:
			if !slots[in.a].truthy() {
				pc = int(in.c)
				continue
			}
		case opSlotJT:
			if slots[in.a].truthy() {
				pc = int(in.c)
				continue
			}
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

// accessField materializes (lab|mod|role|pos x|y) from the bound role
// values — the VM image of accessExpr.eval, including mod's
// int-or-nil split.
//
//parsec:noalloc
func accessField(spec int16, x, y RVRef) value {
	rv := x
	if spec&accOnY != 0 {
		rv = y
	}
	switch spec & accFieldMask {
	case accLab:
		return value{kind: vLabel, n: int64(rv.Lab)}
	case accMod:
		if rv.Mod == NilMod {
			return valNil
		}
		return value{kind: vInt, n: int64(rv.Mod)}
	case accRole:
		return value{kind: vRole, n: int64(rv.Role)}
	}
	return value{kind: vInt, n: int64(rv.Pos)}
}

// eqValsSent is eqVals for the VM: same kind table, with the
// vWord-compares-strings rule reading the sentence directly.
//
//parsec:noalloc
func eqValsSent(sent *Sentence, a, b value) bool {
	if a.kind == vInvalid || a.kind != b.kind {
		return false
	}
	if a.kind == vWord {
		return wordAt(sent, a.n) == wordAt(sent, b.n)
	}
	return a.n == b.n
}

//parsec:noalloc
func wordAt(sent *Sentence, p int64) string {
	if p < 1 || p > int64(len(sent.words)) {
		return ""
	}
	return sent.words[p-1]
}
