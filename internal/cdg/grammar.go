// Package cdg implements Constraint Dependency Grammar (Maruyama 1990)
// as described in section 1 of Helzerman & Harper, "Log Time Parsing on
// the MasPar MP-1" (ICPP 1992).
//
// A CDG grammar is a 5-tuple ⟨Σ, L, R, T, C⟩:
//
//	Σ — terminal symbols (lexical categories: noun, verb, det, …)
//	L — labels (syntactic functions: SUBJ, ROOT, DET, NP, S, BLANK, …)
//	R — roles per word (governor, needs, …)
//	T — a table restricting which labels are legal for each role
//	C — a set of unary and binary constraints over role values
//
// A role value is a ⟨label, modifiee⟩ pair; a parse assigns one role
// value to every role of every word such that all constraints hold.
package cdg

import (
	"fmt"
	"sort"
	"strings"
)

// LabelID indexes Grammar.Labels.
type LabelID uint8

// RoleID indexes Grammar.Roles.
type RoleID uint8

// CatID indexes Grammar.Cats (the terminal symbols Σ).
type CatID uint8

// NilMod is the modifiee value meaning "modifies no word" (the paper's
// special symbol nil). Word positions are 1-based, so 0 is free.
const NilMod = 0

// Constraint is one compiled if-then rule from C.
type Constraint struct {
	// Name is a short identifier used in diagnostics and experiment
	// output; it has no grammatical meaning.
	Name string
	// Arity is 1 for unary constraints (one role-value variable x) and
	// 2 for binary constraints (variables x and y).
	Arity int
	// Source is the s-expression text the constraint was compiled from.
	Source string

	ante expr
	cons expr

	// prog is the flat program compiled from ante/cons (vm.go); nil
	// when some leaf has no fused test, in which case every Checker for
	// this constraint evaluates through the AST reference interpreter
	// below.
	prog *Prog
}

// Satisfied reports whether the constraint holds in env. A role value
// (or pair) violates the constraint iff the antecedent is true and the
// consequent is false.
func (c *Constraint) Satisfied(env *Env) bool {
	if !c.ante.eval(env).truthy() {
		return true
	}
	return c.cons.eval(env).truthy()
}

// Grammar is an immutable, validated CDG grammar. Build one with a
// Builder or ParseGrammar; the zero value is not usable.
type Grammar struct {
	labels []string
	roles  []string
	cats   []string

	labelIdx map[string]LabelID
	roleIdx  map[string]RoleID
	catIdx   map[string]CatID

	// table[r] is the sorted set of labels legal for role r (table T).
	table [][]LabelID
	// catTable[r][c], when non-nil, further restricts role r's labels
	// for words of category c (the paper's footnote 1: "we also
	// restrict labels by using word category information").
	catTable map[RoleID]map[CatID][]LabelID

	lexicon map[string][]CatID

	unary  []*Constraint
	binary []*Constraint

	// maxLabels is the largest |table[r]| over all roles — the paper's
	// grammatical constant l used for PE virtualization (§2.2.3).
	maxLabels int
}

// NumLabels returns |L|.
func (g *Grammar) NumLabels() int { return len(g.labels) }

// NumRoles returns |R| (the paper's q).
func (g *Grammar) NumRoles() int { return len(g.roles) }

// NumCats returns |Σ|.
func (g *Grammar) NumCats() int { return len(g.cats) }

// MaxLabelsPerRole returns the paper's constant l: the largest number of
// labels any single role admits under table T.
func (g *Grammar) MaxLabelsPerRole() int { return g.maxLabels }

// Labels returns a copy of the label names.
func (g *Grammar) Labels() []string { return append([]string(nil), g.labels...) }

// Roles returns a copy of the role names.
func (g *Grammar) Roles() []string { return append([]string(nil), g.roles...) }

// Cats returns a copy of the category names.
func (g *Grammar) Cats() []string { return append([]string(nil), g.cats...) }

// LabelName returns the name of label id.
func (g *Grammar) LabelName(id LabelID) string { return g.labels[id] }

// RoleName returns the name of role id.
func (g *Grammar) RoleName(id RoleID) string { return g.roles[id] }

// CatName returns the name of category id.
func (g *Grammar) CatName(id CatID) string { return g.cats[id] }

// LabelByName resolves a label name.
func (g *Grammar) LabelByName(name string) (LabelID, bool) {
	id, ok := g.labelIdx[name]
	return id, ok
}

// RoleByName resolves a role name.
func (g *Grammar) RoleByName(name string) (RoleID, bool) {
	id, ok := g.roleIdx[name]
	return id, ok
}

// CatByName resolves a category name.
func (g *Grammar) CatByName(name string) (CatID, bool) {
	id, ok := g.catIdx[name]
	return id, ok
}

// RoleLabels returns table T's label set for role r (do not mutate).
func (g *Grammar) RoleLabels(r RoleID) []LabelID { return g.table[r] }

// AllowedLabels returns the labels legal for role r on a word of
// category c, honoring the optional per-category restriction.
func (g *Grammar) AllowedLabels(r RoleID, c CatID) []LabelID {
	if byCat, ok := g.catTable[r]; ok {
		if ls, ok := byCat[c]; ok {
			return ls
		}
	}
	return g.table[r]
}

// LookupWord returns the categories the lexicon admits for word (after
// lower-casing), or nil if the word is unknown.
func (g *Grammar) LookupWord(word string) []CatID {
	return g.lexicon[strings.ToLower(word)]
}

// Words returns the lexicon's word list, sorted.
func (g *Grammar) Words() []string {
	out := make([]string, 0, len(g.lexicon))
	for w := range g.lexicon {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Unary returns the unary constraints (do not mutate).
func (g *Grammar) Unary() []*Constraint { return g.unary }

// Binary returns the binary constraints (do not mutate).
func (g *Grammar) Binary() []*Constraint { return g.binary }

// NumConstraints returns k = k_u + k_b.
func (g *Grammar) NumConstraints() int { return len(g.unary) + len(g.binary) }

// Builder assembles a Grammar. Methods record the first error and make
// subsequent calls no-ops; Build returns it.
type Builder struct {
	g   *Grammar
	err error
}

// NewBuilder returns an empty grammar builder.
func NewBuilder() *Builder {
	return &Builder{g: &Grammar{
		labelIdx: map[string]LabelID{},
		roleIdx:  map[string]RoleID{},
		catIdx:   map[string]CatID{},
		catTable: map[RoleID]map[CatID][]LabelID{},
		lexicon:  map[string][]CatID{},
	}}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("cdg: "+format, args...)
	}
}

// reserved names cannot be used for labels, roles, or categories because
// they have fixed meaning inside the constraint language.
var reserved = map[string]bool{
	"nil": true, "x": true, "y": true,
	"and": true, "or": true, "not": true,
	"eq": true, "gt": true, "lt": true,
	"lab": true, "mod": true, "role": true, "pos": true,
	"word": true, "cat": true, "if": true,
}

func (b *Builder) checkName(kind, name string) bool {
	if b.err != nil {
		return false
	}
	if name == "" {
		b.fail("%s name must not be empty", kind)
		return false
	}
	if reserved[name] {
		b.fail("%s name %q is reserved by the constraint language", kind, name)
		return false
	}
	if _, ok := b.g.labelIdx[name]; ok {
		b.fail("name %q already used as a label", name)
		return false
	}
	if _, ok := b.g.roleIdx[name]; ok {
		b.fail("name %q already used as a role", name)
		return false
	}
	if _, ok := b.g.catIdx[name]; ok {
		b.fail("name %q already used as a category", name)
		return false
	}
	return true
}

// Labels declares the label set L.
func (b *Builder) Labels(names ...string) *Builder {
	for _, n := range names {
		if !b.checkName("label", n) {
			return b
		}
		if len(b.g.labels) >= 255 {
			b.fail("too many labels (max 255)")
			return b
		}
		b.g.labelIdx[n] = LabelID(len(b.g.labels))
		b.g.labels = append(b.g.labels, n)
	}
	return b
}

// Role declares one role with its table-T label set.
func (b *Builder) Role(name string, labels ...string) *Builder {
	if !b.checkName("role", name) {
		return b
	}
	if len(labels) == 0 {
		b.fail("role %q must admit at least one label", name)
		return b
	}
	var ids []LabelID
	for _, l := range labels {
		id, ok := b.g.labelIdx[l]
		if !ok {
			b.fail("role %q: unknown label %q (declare labels first)", name, l)
			return b
		}
		ids = append(ids, id)
	}
	sortLabelIDs(ids)
	if len(b.g.roles) >= 255 {
		b.fail("too many roles (max 255)")
		return b
	}
	b.g.roleIdx[name] = RoleID(len(b.g.roles))
	b.g.roles = append(b.g.roles, name)
	b.g.table = append(b.g.table, ids)
	return b
}

// Categories declares terminal symbols Σ.
func (b *Builder) Categories(names ...string) *Builder {
	for _, n := range names {
		if !b.checkName("category", n) {
			return b
		}
		if len(b.g.cats) >= 255 {
			b.fail("too many categories (max 255)")
			return b
		}
		b.g.catIdx[n] = CatID(len(b.g.cats))
		b.g.cats = append(b.g.cats, n)
	}
	return b
}

// RestrictRoleForCat narrows role's labels for words of category cat
// (footnote 1 of the paper).
func (b *Builder) RestrictRoleForCat(role, cat string, labels ...string) *Builder {
	if b.err != nil {
		return b
	}
	r, ok := b.g.roleIdx[role]
	if !ok {
		b.fail("RestrictRoleForCat: unknown role %q", role)
		return b
	}
	c, ok := b.g.catIdx[cat]
	if !ok {
		b.fail("RestrictRoleForCat: unknown category %q", cat)
		return b
	}
	full := map[LabelID]bool{}
	for _, id := range b.g.table[r] {
		full[id] = true
	}
	var ids []LabelID
	for _, l := range labels {
		id, ok := b.g.labelIdx[l]
		if !ok {
			b.fail("RestrictRoleForCat: unknown label %q", l)
			return b
		}
		if !full[id] {
			b.fail("RestrictRoleForCat: label %q not in table T for role %q", l, role)
			return b
		}
		ids = append(ids, id)
	}
	sortLabelIDs(ids)
	if b.g.catTable[r] == nil {
		b.g.catTable[r] = map[CatID][]LabelID{}
	}
	b.g.catTable[r][c] = ids
	return b
}

// Word adds a lexicon entry mapping word to one or more categories.
func (b *Builder) Word(word string, cats ...string) *Builder {
	if b.err != nil {
		return b
	}
	if word == "" {
		b.fail("lexicon word must not be empty")
		return b
	}
	if len(cats) == 0 {
		b.fail("word %q needs at least one category", word)
		return b
	}
	key := strings.ToLower(word)
	for _, c := range cats {
		id, ok := b.g.catIdx[c]
		if !ok {
			b.fail("word %q: unknown category %q", word, c)
			return b
		}
		dup := false
		for _, have := range b.g.lexicon[key] {
			if have == id {
				dup = true
			}
		}
		if !dup {
			b.g.lexicon[key] = append(b.g.lexicon[key], id)
		}
	}
	return b
}

// Constraint compiles and adds a constraint from s-expression source.
// Arity (unary vs binary) is inferred from the variables used.
func (b *Builder) Constraint(name, src string) *Builder {
	if b.err != nil {
		return b
	}
	c, err := compileConstraint(b.g, name, src)
	if err != nil {
		b.fail("constraint %q: %v", name, err)
		return b
	}
	if c.Arity == 1 {
		b.g.unary = append(b.g.unary, c)
	} else {
		b.g.binary = append(b.g.binary, c)
	}
	return b
}

// Build validates and returns the grammar.
func (b *Builder) Build() (*Grammar, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := b.g
	if len(g.labels) == 0 {
		return nil, fmt.Errorf("cdg: grammar has no labels")
	}
	if len(g.roles) == 0 {
		return nil, fmt.Errorf("cdg: grammar has no roles")
	}
	if len(g.cats) == 0 {
		return nil, fmt.Errorf("cdg: grammar has no categories")
	}
	for _, ls := range g.table {
		if len(ls) > g.maxLabels {
			g.maxLabels = len(ls)
		}
	}
	return g, nil
}

// MustBuild is Build that panics on error (for package-level grammars).
func (b *Builder) MustBuild() *Grammar {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func sortLabelIDs(ids []LabelID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
