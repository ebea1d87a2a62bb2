package core

import (
	"context"
	"testing"

	"sparqluo/internal/exec"
)

func TestNodeCardFolding(t *testing.T) {
	st := chainStore(t)
	cm := &costModel{st: st, engine: exec.WCOEngine{}, ctx: context.Background()}
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
		OPTIONAL { ?x <http://ex.org/p3> ?w }
	}`)
	bgp := tree.Root.Children[0].(*BGPNode)
	u := tree.Root.Children[1].(*UnionNode)
	o := tree.Root.Children[2].(*OptionalNode)

	cb := cm.nodeCard(bgp)
	if cb != cm.estCard(bgp) {
		t.Errorf("BGP card %v != estCard %v", cb, cm.estCard(bgp))
	}
	// UNION adds its branches.
	sum := 0.0
	for _, br := range u.Branches {
		sum += cm.nodeCard(br)
	}
	if got := cm.nodeCard(u); got != sum {
		t.Errorf("union card %v, want sum of branches %v", got, sum)
	}
	// OPTIONAL contributes its right group.
	if got := cm.nodeCard(o); got != cm.nodeCard(o.Right) {
		t.Errorf("optional card %v, want right group %v", got, cm.nodeCard(o.Right))
	}
	// Group multiplies its children.
	prod := cm.nodeCard(bgp) * cm.nodeCard(u) * cm.nodeCard(o)
	if got := cm.nodeCard(tree.Root); got != prod {
		t.Errorf("group card %v, want product %v", got, prod)
	}
}

func TestLevelCostIncludesBGPCostAndAlgebra(t *testing.T) {
	st := chainStore(t)
	cm := &costModel{st: st, engine: exec.WCOEngine{}, ctx: context.Background()}
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> ?y .
		?a <http://ex.org/p1> ?b .
	}`)
	// Two disjoint single-pattern BGPs at one level.
	children := tree.Root.Children
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	b0 := children[0].(*BGPNode)
	b1 := children[1].(*BGPNode)
	c0, c1 := cm.estCard(b0), cm.estCard(b1)
	// fAND terms: c0 * 1 * c1 (left empty, right = c1) + c1 * c0 * 1.
	wantAlgebra := c0*c1 + c1*c0
	want := wantAlgebra + cm.estCost(b0) + cm.estCost(b1)
	if got := cm.levelCost(children); got != want {
		t.Errorf("levelCost = %v, want %v", got, want)
	}
}

func TestDeltaMergeNegativeForSelectiveAnchor(t *testing.T) {
	st := chainStore(t)
	// p0 with a ground object is selective; merging it into the UNION
	// should be estimated as an improvement.
	tree := buildTree(t, st, `SELECT * WHERE {
		?x <http://ex.org/p0> "lit0" .
		{ ?x <http://ex.org/p1> ?z } UNION { ?x <http://ex.org/p2> ?z }
	}`)
	tr := NewTransformer(context.Background(), st, exec.WCOEngine{})
	d := tr.delta(tree.Root, 0, 1)
	if d >= 0 {
		t.Errorf("Δcost(merge selective anchor) = %v, want negative", d)
	}
}

func TestEstimateMemoization(t *testing.T) {
	st := chainStore(t)
	cm := &costModel{st: st, engine: exec.WCOEngine{}, ctx: context.Background()}
	tree := buildTree(t, st, `SELECT * WHERE { ?x <http://ex.org/p0> ?y . }`)
	b := tree.Root.Children[0].(*BGPNode)
	first := cm.estCard(b)
	if !b.estValid {
		t.Fatal("estimate not memoized")
	}
	if again := cm.estCard(b); again != first {
		t.Errorf("memoized estimate changed: %v → %v", first, again)
	}
	// Coalescing invalidates the memo.
	b.Enc = append(b.Enc, b.Enc[0])
	b.estValid = false
	_ = cm.estCard(b)
	if !b.estValid {
		t.Error("re-estimation did not re-memoize")
	}
}
