package core

import (
	"context"

	"sparqluo/internal/exec"
	"sparqluo/internal/store"
)

// Transformer applies the cost-driven BE-tree transformations of §5.2:
// for every level of the tree, in post-order (Algorithm 4), it considers
// merging each BGP node with its sibling UNION nodes and injecting it into
// its right-sibling OPTIONAL nodes (Algorithm 2), performing exactly the
// transformations whose estimated Δ-cost is negative (Algorithm 3,
// Equations 4 and 8).
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
		switch child := child.(type) {
		case *GroupNode:
			applied += tr.postOrder(child)
		case *UnionNode:
			for _, br := range child.Branches {
				applied += tr.postOrder(br)
			}
		case *OptionalNode:
			applied += tr.postOrder(child.Right)
		}
	}
	applied += tr.singleLevel(g)
	return applied
}

// singleLevel is Algorithm 2: for each BGP child of g, choose the sibling
// UNION with the most negative merge Δ-cost (a BGP can merge into at most
// one UNION since merging removes it), then decide injects individually
// for each OPTIONAL sibling to its right (injects are independent because
// the injected BGP keeps its original occurrence).
func (tr *Transformer) singleLevel(g *GroupNode) int {
	applied := 0
	i := 0
	for i < len(g.Children) {
		p1, ok := g.Children[i].(*BGPNode)
		if !ok {
			i++
			continue
		}
		// Merge decision across all sibling UNION nodes.
		bestDelta, bestJ := 0.0, -1
		for j, sib := range g.Children {
			if tr.DisableMerge {
				break
			}
			u, ok := sib.(*UnionNode)
			if !ok {
				continue
			}
			if !tr.mergeAllowed(g, i, j, p1, u) {
				continue
			}
			if d := tr.deltaMerge(g, i, j); d < bestDelta {
				bestDelta, bestJ = d, j
			}
		}
		if bestJ >= 0 {
			applyMerge(g, i, bestJ)
			applied++
			// The BGP node was removed; do not advance i — the next
			// child has shifted into position i.
			continue
		}
		// Inject decisions: each OPTIONAL node to the right, independent.
		for j := i + 1; j < len(g.Children) && !tr.DisableInject; j++ {
			o, ok := g.Children[j].(*OptionalNode)
			if !ok {
				continue
			}
			if !tr.injectAllowed(g, i, j, p1, o) {
				continue
			}
			if d := tr.deltaInject(g, i, j); d < 0 {
				applyInject(g, i, j)
				applied++
			}
		}
		i++
	}
	return applied
}

// mergeAllowed checks the constraints of Definition 9 plus two safety /
// policy conditions: insertion into every branch must be
// variable-coverage safe (see insertSafe), and the §6 special case may
// skip the transformation when candidate pruning subsumes it.
func (tr *Transformer) mergeAllowed(g *GroupNode, i, j int, p1 *BGPNode, u *UnionNode) bool {
	if tr.SkipWhenEquivalentToCP && i == 0 && j == 1 {
		return false
	}
	// Condition 2 of Definition 9: some branch has a coalescable BGP child.
	coalescable := false
	for _, br := range u.Branches {
		for _, ch := range br.Children {
			if b, ok := ch.(*BGPNode); ok && bgpCoalescable(p1.Enc, b.Enc) {
				coalescable = true
			}
		}
	}
	if !coalescable {
		return false
	}
	// The merge inserts P1 into every branch; all must be safe.
	for _, br := range u.Branches {
		if !insertSafe(p1, br) {
			return false
		}
	}
	return true
}

// injectAllowed checks the constraints of Definition 10 (the OPTIONAL is
// to the right; its child group has a coalescable BGP child), the
// insertion-safety condition, and the §6 special-case skip.
func (tr *Transformer) injectAllowed(g *GroupNode, i, j int, p1 *BGPNode, o *OptionalNode) bool {
	if tr.SkipWhenEquivalentToCP && i == 0 && j == 1 {
		return false
	}
	coalescable := false
	for _, ch := range o.Right.Children {
		if b, ok := ch.(*BGPNode); ok && bgpCoalescable(p1.Enc, b.Enc) {
			coalescable = true
		}
	}
	return coalescable && insertSafe(p1, o.Right)
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
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *BGPNode:
			for _, p := range n.Enc {
				for _, pos := range [3]exec.Pos{p.S, p.P, p.O} {
					if pos.IsVar {
						out[pos.Var] = true
					}
				}
			}
		case *GroupNode:
			for _, ch := range n.Children {
				walk(ch)
			}
		case *UnionNode:
			for _, br := range n.Branches {
				walk(br)
			}
		case *OptionalNode:
			walk(n.Right)
		}
	}
	walk(n)
	return out
}

// deltaMerge estimates Δcost(t_m) = cost(t'_m) − cost(t_m) (Equation 4)
// by computing the local cost before the merge, applying the merge to a
// cloned level, and recomputing the local cost after.
func (tr *Transformer) deltaMerge(g *GroupNode, i, j int) float64 {
	before := tr.cm.mergeScopeCost(g, j)
	clone := g.clone().(*GroupNode)
	applyMerge(clone, i, j)
	// After the merge the node at i is gone; the UNION shifted left.
	jAfter := j
	if j > i {
		jAfter = j - 1
	}
	after := tr.cm.mergeScopeCost(clone, jAfter)
	return after - before
}

// deltaInject estimates Δcost(t_i) = cost(t'_i) − cost(t_i) (Equation 8)
// the same way.
func (tr *Transformer) deltaInject(g *GroupNode, i, j int) float64 {
	before := tr.cm.injectScopeCost(g, j)
	clone := g.clone().(*GroupNode)
	applyInject(clone, i, j)
	after := tr.cm.injectScopeCost(clone, j)
	return after - before
}

// applyMerge performs the merge transformation (Definition 9): the BGP
// node at index i is inserted as the leftmost child of every branch of the
// UNION node at index j, coalesced to maximality, and removed from its
// original position. Theorem 1 guarantees semantics preservation.
func applyMerge(g *GroupNode, i, j int) {
	p1 := g.Children[i].(*BGPNode)
	u := g.Children[j].(*UnionNode)
	for _, br := range u.Branches {
		cp := p1.clone().(*BGPNode)
		br.Children = append([]Node{cp}, br.Children...)
		coalesceSiblings(br)
	}
	g.Children = append(g.Children[:i], g.Children[i+1:]...)
}

// applyInject performs the inject transformation (Definition 10): the BGP
// node at index i is inserted as the leftmost child of the OPTIONAL-right
// group of the OPTIONAL node at index j and coalesced to maximality; the
// original BGP node stays in place. Theorem 2 guarantees semantics
// preservation.
func applyInject(g *GroupNode, i, j int) {
	p1 := g.Children[i].(*BGPNode)
	o := g.Children[j].(*OptionalNode)
	cp := p1.clone().(*BGPNode)
	o.Right.Children = append([]Node{cp}, o.Right.Children...)
	coalesceSiblings(o.Right)
}
