package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/qgen"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// chainStore builds a store where p0 edges are selective from one anchor
// and p1/p2 edges are plentiful, so transformations have clear payoffs.
func chainStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.FromRDF(qgen.RandomDataset(rand.New(rand.NewSource(21)), 400))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func buildTree(t *testing.T, st *store.Store, text string) *Tree {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tree, err := Build(q, st)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return tree
}

func TestApplyMergeStructure(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
	}`)
	g := tree.Root
	if len(g.Children) != 2 {
		t.Fatalf("root children = %d", len(g.Children))
	}
	if j := insert(g, 0, 1); j != 0 {
		t.Fatalf("after merge: UNION at index %d, want 0", j)
	}
	if len(g.Children) != 1 {
		t.Fatalf("after merge: children = %d, want 1 (BGP removed)", len(g.Children))
	}
	u, ok := g.Children[0].(*UnionNode)
	if !ok {
		t.Fatalf("after merge: child is %T", g.Children[0])
	}
	for i, br := range u.Branches {
		bgp, ok := br.Children[0].(*BGPNode)
		if !ok || len(bgp.Enc) != 2 {
			t.Errorf("branch %d: want coalesced 2-pattern BGP, got %T", i, br.Children[0])
		}
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("validate after merge: %v", err)
	}
}

func TestApplyInjectStructure(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		OPTIONAL { ?x <http://ex.org/p1> ?z }
	}`)
	g := tree.Root
	if j := insert(g, 0, 1); j != 1 {
		t.Fatalf("after inject: OPTIONAL at index %d, want 1", j)
	}
	if len(g.Children) != 2 {
		t.Fatalf("inject must keep the original BGP: children = %d", len(g.Children))
	}
	o := g.Children[1].(*OptionalNode)
	bgp, ok := o.Right.Children[0].(*BGPNode)
	if !ok || len(bgp.Enc) != 2 {
		t.Errorf("OPTIONAL-right should hold coalesced 2-pattern BGP, got %T", o.Right.Children[0])
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("validate after inject: %v", err)
	}
}

// TestInsertSafeBlocksUncoveredOptionalVars pins the safety rule found
// by the property tests: inserting P1 into a group whose OPTIONAL child
// shares a P1 variable that the group's required part does not bind is
// not equivalent to P1 AND {group} (join does not push through the left
// side of a left outer join in that case — see
// TestLeftJoinNotCommutableWithJoin in the algebra package).
func TestInsertSafeBlocksUncoveredOptionalVars(t *testing.T) {
	st := chainStore(t)
	// The UNION's second branch has an OPTIONAL mentioning ?y, which P1
	// binds but the branch's required pattern (?x p2 ?z) does not.
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z }
		UNION
		{ ?x <http://ex.org/p2> ?z OPTIONAL { ?y <http://ex.org/p3> ?w } }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	if tr.allowed(tree.Root, 0, 1) {
		t.Fatal("merge into a branch with an uncovered OPTIONAL variable must be blocked")
	}
	// The same shape without the variable overlap is allowed.
	tree2 := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z }
		UNION
		{ ?x <http://ex.org/p2> ?z OPTIONAL { ?z <http://ex.org/p3> ?w } }
	}`)
	if !tr.allowed(tree2.Root, 0, 1) {
		t.Fatal("covered OPTIONAL variables should not block the merge")
	}
}

// TestInjectBlockedByUncoveredOptionalVar is the inject-side analogue.
func TestInjectBlockedByUncoveredOptionalVar(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		OPTIONAL { ?x <http://ex.org/p1> ?z OPTIONAL { ?y <http://ex.org/p2> ?w } }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	if tr.allowed(tree.Root, 0, 1) {
		t.Fatal("inject with an uncovered OPTIONAL variable must be blocked")
	}
}

// TestBGPCoalescable pins Definition 3/4: two BGPs coalesce when some
// pair of their patterns shares a subject/object variable; a shared
// predicate variable does not count.
func TestBGPCoalescable(t *testing.T) {
	const x, y, z, a, b, p = 0, 1, 2, 3, 4, 5
	v, c := exec.Var, exec.Const
	tp := func(s, p, o exec.Pos) exec.BGP { return exec.BGP{{S: s, P: p, O: o}} }
	cases := []struct {
		a, b exec.BGP
		want bool
	}{
		{tp(v(x), c(1), v(y)), tp(v(y), c(2), v(z)), true},  // shared ?y
		{tp(v(x), c(1), v(y)), tp(v(a), c(2), v(b)), false}, // disjoint
		{tp(v(x), c(1), c(9)), tp(c(9), c(2), v(x)), true},  // shared ?x
		{tp(v(x), v(p), v(y)), tp(v(a), v(p), v(b)), false}, // predicate variables do not count
		{tp(c(7), c(1), c(9)), tp(c(7), c(1), c(9)), false}, // no variables at all
		{tp(v(x), c(1), v(x)), tp(v(a), c(2), v(x)), true},  // ?x at both ends of one pattern
		{append(tp(v(x), c(1), v(y)), tp(v(z), c(1), c(9))...), // any pair of patterns suffices
			tp(v(a), c(2), v(z)), true},
	}
	for i, tc := range cases {
		if got := bgpCoalescable(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: bgpCoalescable = %v, want %v", i, got, tc.want)
		}
	}
}

func TestMergeRequiresCoalescableBranch(t *testing.T) {
	st := chainStore(t)
	// The UNION branches share no subject/object variable with the BGP.
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?a <http://ex.org/p1> ?b } UNION { ?a <http://ex.org/p2> ?b }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	if tr.allowed(tree.Root, 0, 1) {
		t.Fatal("merge without a coalescable branch violates Definition 9")
	}
}

func TestInjectRequiresCoalescableChild(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		OPTIONAL { ?a <http://ex.org/p1> ?b }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	if tr.allowed(tree.Root, 0, 1) {
		t.Fatal("inject without a coalescable BGP child violates Definition 10")
	}
}

func TestSkipWhenEquivalentToCP(t *testing.T) {
	st := chainStore(t)
	text := `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		OPTIONAL { ?x <http://ex.org/p1> ?z }
	}`
	// With the §6 special-case skip (full), no transformation happens.
	tree := buildTree(t, st, text)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	tr.SkipWhenEquivalentToCP = true
	if n := tr.Transform(tree); n != 0 {
		t.Errorf("full-mode should skip the single-BGP special case, applied %d", n)
	}
}

func TestInjectIsIndependentPerOptional(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> "lit0" .
		OPTIONAL { ?x <http://ex.org/p1> ?z }
		OPTIONAL { ?x <http://ex.org/p2> ?w }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	n := tr.Transform(tree)
	// The selective anchor may be injected into both OPTIONALs; whatever
	// the cost model decides, the original BGP must remain at the level.
	if _, ok := tree.Root.Children[0].(*BGPNode); !ok {
		t.Fatalf("inject removed the original BGP (applied %d)", n)
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestMergeOnlyOncePerBGP(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> "lit0" .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
		{ ?x <http://ex.org/p3> ?w } UNION { ?x <http://ex.org/p4> ?w }
	}`)
	before, _ := evaluate(tree, st, exec.WCOEngine{}, Pruning{})
	work := tree.Clone()
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	tr.Transform(work)
	// Count occurrences of the anchor pattern across the tree: if merged,
	// it must appear in the branches of exactly one UNION (a BGP is
	// removed from its original position by merge, so it cannot merge
	// into two UNIONs — that would change semantics).
	after, _ := evaluate(work, st, exec.WCOEngine{}, Pruning{})
	if !algebra.MultisetEqual(before, after) {
		t.Fatalf("semantics changed:\n%s", work)
	}
}

func TestTransformerFillsEstimates(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		OPTIONAL { ?x <http://ex.org/p1> ?z }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	tr.Transform(tree)
	for b := range bgps(tree.Root) {
		if !b.estValid {
			t.Errorf("BGP node missing estimates after Transform")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
		OPTIONAL { ?x <http://ex.org/p3> ?w }
	}`)
	clone := tree.Clone()
	insert(clone.Root, 0, 1)
	// The original must be untouched.
	if len(tree.Root.Children) != 3 {
		t.Fatal("mutating the clone changed the original")
	}
	if _, ok := tree.Root.Children[0].(*BGPNode); !ok {
		t.Fatal("original root child 0 no longer a BGP")
	}
}

func TestJoinSpaceFolding(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
	}`)
	_, stats := evaluate(tree, st, exec.WCOEngine{}, Pruning{})
	js := JoinSpace(tree, stats)
	// JS = |BGP| × (|branch1| + |branch2|); recompute by hand.
	var sizes []int
	for _, n := range stats.BGPResults {
		sizes = append(sizes, n)
	}
	if len(sizes) != 3 {
		t.Fatalf("expected 3 BGP evaluations, got %d", len(sizes))
	}
	want := float64(sizes[0]) * float64(sizes[1]+sizes[2])
	if js != want {
		t.Errorf("JoinSpace = %v, want %v (sizes %v)", js, want, sizes)
	}
}

func TestCountBGPAndDepthOnCatalogShapes(t *testing.T) {
	st := chainStore(t)
	cases := []struct {
		text            string
		countBGP, depth int
	}{
		{`SELECT * WHERE { ?x <http://ex.org/p0> ?y . }`, 1, 1},
		{`SELECT * WHERE { ?x <http://ex.org/p0> ?y . ?y <http://ex.org/p1> ?z . }`, 1, 1},
		{`SELECT * WHERE { ?x <http://ex.org/p0> ?y . ?a <http://ex.org/p1> ?b . }`, 2, 1},
		{`SELECT * WHERE { { ?x <http://ex.org/p0> ?y } UNION { ?x <http://ex.org/p1> ?y } }`, 2, 2},
		{`SELECT * WHERE { ?x <http://ex.org/p0> ?y OPTIONAL { ?x <http://ex.org/p1> ?z OPTIONAL { ?z <http://ex.org/p2> ?w } } }`, 3, 3},
	}
	for i, tc := range cases {
		tree := buildTree(t, st, tc.text)
		if got := tree.CountBGP(); got != tc.countBGP {
			t.Errorf("case %d: CountBGP = %d, want %d", i, got, tc.countBGP)
		}
		if got := tree.Depth(); got != tc.depth {
			t.Errorf("case %d: Depth = %d, want %d", i, got, tc.depth)
		}
	}
}

func TestTreeStringMentionsAllNodeKinds(t *testing.T) {
	st := chainStore(t)
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
		OPTIONAL { ?x <http://ex.org/p3> ?w }
	}`)
	s := tree.String()
	for _, want := range []string{"Group", "BGP", "UNION", "OPTIONAL"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func TestProjectionOfAbsentVariable(t *testing.T) {
	st := chainStore(t)
	q := sparql.MustParse(`SELECT ?ghost WHERE { ?x <http://ex.org/p0> ?y . }`)
	res, err := run(q, st, exec.WCOEngine{}, Base)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := res.Vars.Lookup("ghost")
	if !ok {
		t.Fatal("projected variable should be interned")
	}
	for _, r := range res.Bag.All() {
		if r[idx] != store.None {
			t.Fatal("absent variable must stay unbound")
		}
	}
}
