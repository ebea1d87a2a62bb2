package core

import (
	"context"
	"slices"

	"sparqluo/internal/exec"
	"sparqluo/internal/store"
)

// Transformer applies the cost-driven BE-tree transformations of §5.2:
// for every level of the tree, in post-order (Algorithm 4), it considers
// merging each BGP node with its sibling UNION nodes and injecting it into
// its right-sibling OPTIONAL nodes (Algorithm 2), performing exactly the
// transformations whose estimated Δ-cost is negative (Algorithm 3). Merge
// (Definition 9) and inject (Definition 10) are one insertion of the BGP
// node into the groups the operator node holds (see insert and targets),
// decided by one check (allowed) and one Δ-cost (delta, Equations 1–8).
type Transformer struct {
	// SkipWhenEquivalentToCP implements the special case of §6: when the
	// BGP node is the only sibling to the left of the UNION or OPTIONAL
	// node, the transformation is equivalent to candidate pruning and is
	// skipped to avoid the duplicate-evaluation overhead. Set by the
	// "full" strategy; the TT-only strategy leaves it false.
	SkipWhenEquivalentToCP bool

	// DisableMerge and DisableInject turn off one transformation kind;
	// they exist for the ablation study (merge targets UNION, inject
	// targets OPTIONAL, so disabling one isolates its contribution).
	DisableMerge  bool
	DisableInject bool

	cm *costModel
}

// NewTransformer returns a Transformer using the given store statistics
// and BGP engine estimators. ctx bounds the sampling estimators: once it
// is cancelled the cost model stops sampling and the transformation
// finishes quickly with meaningless Δ-costs, which the caller discards
// along with the plan.
func NewTransformer(ctx context.Context, st store.Reader, engine exec.Engine) *Transformer {
	return &Transformer{cm: &costModel{st: st, engine: engine, ctx: ctx}}
}

// Transform runs the multi-level transformation (Algorithm 4) on the tree
// in place and returns the number of transformations applied. It also
// fills BGP result-size estimates for adaptive candidate pruning.
func (tr *Transformer) Transform(t *Tree) int {
	n := tr.postOrder(t.Root)
	tr.cm.fillEstimates(t.Root)
	return n
}

// postOrder is Algorithm 4: children levels are transformed before the
// current level, so lower levels are final when upper decisions are made.
func (tr *Transformer) postOrder(g *GroupNode) int {
	applied := 0
	for _, child := range g.Children {
		if sub, ok := child.(*GroupNode); ok {
			applied += tr.postOrder(sub)
		}
		for _, sub := range targets(child) {
			applied += tr.postOrder(sub)
		}
	}
	return applied + tr.singleLevel(g)
}

// singleLevel is Algorithm 2 over the BGP children of g. The two
// insertion kinds differ only in how they are chosen: a merge removes
// the BGP node from g, so it goes into at most one UNION, the sibling
// with the most negative Δ-cost; an inject keeps the BGP node in place,
// so each OPTIONAL sibling to its right is decided on its own.
func (tr *Transformer) singleLevel(g *GroupNode) int {
	applied := 0
	for i := 0; i < len(g.Children); i++ {
		if _, ok := g.Children[i].(*BGPNode); !ok {
			continue
		}
		bestDelta, bestJ := 0.0, -1
		for j, sib := range g.Children {
			if _, ok := sib.(*UnionNode); ok && !tr.DisableMerge && tr.allowed(g, i, j) {
				if d := tr.delta(g, i, j); d < bestDelta {
					bestDelta, bestJ = d, j
				}
			}
		}
		if bestJ >= 0 {
			insert(g, i, bestJ)
			applied++
			i-- // the BGP node left g; the next child shifted into position i
			continue
		}
		for j := i + 1; j < len(g.Children) && !tr.DisableInject; j++ {
			if _, ok := g.Children[j].(*OptionalNode); ok && tr.allowed(g, i, j) && tr.delta(g, i, j) < 0 {
				insert(g, i, j)
				applied++
			}
		}
	}
	return applied
}

// allowed checks the constraints of Definitions 9 and 10 for inserting
// the BGP node at index i of g into the operator node at index j: some
// group the operator node holds has a BGP child coalescable with it, and
// the insertion is variable-coverage safe in every one (insertSafe). The
// §6 special case may skip the pair when candidate pruning subsumes it.
func (tr *Transformer) allowed(g *GroupNode, i, j int) bool {
	if tr.SkipWhenEquivalentToCP && i == 0 && j == 1 {
		return false
	}
	p1 := g.Children[i].(*BGPNode)
	ts := targets(g.Children[j])
	coalescable := false
	for _, t := range ts {
		for _, ch := range t.Children {
			if b, ok := ch.(*BGPNode); ok && bgpCoalescable(p1.Enc, b.Enc) {
				coalescable = true
			}
		}
	}
	if !coalescable {
		return false
	}
	for _, t := range ts {
		if !insertSafe(p1, t) {
			return false
		}
	}
	return true
}

// insertSafe reports whether joining P1 inside group G as a required
// child is equivalent to joining P1 with G's complete result — the
// equivalence Theorems 1 and 2 need. Join pushes through the left side
// of a left outer join only when the pushed operand shares no variable
// with the right side that the left side does not certainly bind:
//
//	P1 ⋈ (R ⟕ O) = (P1 ⋈ R) ⟕ O   iff   vars(P1) ∩ vars(O) ⊆ cert(R)
//
// so every OPTIONAL child of G must have its P1-shared variables covered
// by the certainly-bound variables of G's required children.
func insertSafe(p1 *BGPNode, g *GroupNode) bool {
	p1Vars := map[int]bool{}
	for _, v := range p1.Enc.Vars() {
		p1Vars[v] = true
	}
	req := map[int]bool{}
	for _, ch := range g.Children {
		if _, ok := ch.(*OptionalNode); ok {
			continue
		}
		for v := range certVars(ch) {
			req[v] = true
		}
	}
	for _, ch := range g.Children {
		o, ok := ch.(*OptionalNode)
		if !ok {
			continue
		}
		for v := range allVars(o) {
			if p1Vars[v] && !req[v] {
				return false
			}
		}
	}
	return true
}

// certVars returns the variables certainly bound in every solution of a
// node: all variables for a BGP, the required children's union for a
// group, the branch intersection for a UNION, nothing for an OPTIONAL.
func certVars(n Node) map[int]bool {
	out := map[int]bool{}
	switch n := n.(type) {
	case *BGPNode:
		for _, v := range n.Enc.Vars() {
			out[v] = true
		}
	case *GroupNode:
		for _, ch := range n.Children {
			if _, ok := ch.(*OptionalNode); ok {
				continue
			}
			for v := range certVars(ch) {
				out[v] = true
			}
		}
	case *UnionNode:
		for i, br := range n.Branches {
			bv := certVars(br)
			if i == 0 {
				out = bv
				continue
			}
			for v := range out {
				if !bv[v] {
					delete(out, v)
				}
			}
		}
	case *OptionalNode:
		// nothing certain
	}
	return out
}

// allVars returns every variable occurring anywhere in a subtree.
func allVars(n Node) map[int]bool {
	out := map[int]bool{}
	for b := range bgps(n) {
		for _, p := range b.Enc {
			for _, pos := range [3]exec.Pos{p.S, p.P, p.O} {
				if pos.IsVar {
					out[pos.Var] = true
				}
			}
		}
	}
	return out
}

// delta is the Δ-cost of inserting the BGP node at index i of g into the
// operator node at index j (Equation 4 for a merge, 8 for an inject):
// the scope cost after insert on a cloned level minus the scope cost
// before.
func (tr *Transformer) delta(g *GroupNode, i, j int) float64 {
	before := tr.cm.scopeCost(g, j)
	clone := g.clone().(*GroupNode)
	return tr.cm.scopeCost(clone, insert(clone, i, j)) - before
}

// insert performs merge (Definition 9) and inject (Definition 10), which
// are one insertion: a clone of the BGP node P1 at index i of g becomes
// the leftmost child of every group the operator node at index j holds
// (targets) and is coalesced there to maximality. Into a UNION's
// branches it is a merge, and P1 leaves g (Theorem 1); into an
// OPTIONAL's right group it is an inject, and P1 stays (Theorem 2).
// insert returns the operator node's index in g afterwards.
func insert(g *GroupNode, i, j int) int {
	p1 := g.Children[i].(*BGPNode)
	for _, t := range targets(g.Children[j]) {
		t.Children = append([]Node{p1.clone()}, t.Children...)
		coalesceSiblings(t)
	}
	if _, ok := g.Children[j].(*UnionNode); !ok {
		return j
	}
	g.Children = slices.Delete(g.Children, i, i+1)
	if j > i {
		return j - 1
	}
	return j
}
