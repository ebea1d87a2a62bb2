package core

import (
	"context"

	"sparqluo/internal/exec"
	"sparqluo/internal/store"
)

// costModel implements the SPARQL-UO cost model of §5.1.1. It treats the
// underlying BGP engine as transparent: BGP costs and result sizes come
// from the engine's estimators (§5.1.2), and the algebraic combination
// costs are simple functions of operand result sizes:
//
//	fAND      = product of its arguments
//	fUNION    = sum of its arguments
//	fOPTIONAL = product of its arguments
//
// Result sizes of non-BGP nodes follow the assumed distribution of §5.1.1:
// joins (AND, OPTIONAL) multiply, UNION adds.
type costModel struct {
	st     store.Reader
	engine exec.Engine
	// ctx bounds the sampling estimators. After cancellation estimates
	// are garbage, which is fine: the whole plan is abandoned with the
	// context's error.
	ctx context.Context
}

// estCard returns the engine's estimated result size for a BGP node,
// memoized in the node.
func (cm *costModel) estCard(b *BGPNode) float64 {
	cm.ensure(b)
	return b.estCard
}

// estCost returns the engine's estimated evaluation cost for a BGP node,
// memoized in the node.
func (cm *costModel) estCost(b *BGPNode) float64 {
	cm.ensure(b)
	return b.estCost
}

func (cm *costModel) ensure(b *BGPNode) {
	if b.estValid {
		return
	}
	b.estCard = cm.engine.EstimateCard(cm.ctx, cm.st, b.Enc)
	b.estCost = cm.engine.EstimateCost(cm.ctx, cm.st, b.Enc)
	b.estValid = true
}

// nodeCard estimates |res(n)| for any BE-tree node.
func (cm *costModel) nodeCard(n Node) float64 { return size(n, cm.estCard) }

// size folds the size algebra of §5.1.1 over a subtree: leaf gives a BGP
// node's size, a group multiplies its children's sizes, a UNION adds its
// branches' and an OPTIONAL is its right group's. With the engine's
// estimates as leaf it is the cost model's result-size estimate; with the
// sizes an evaluation recorded it is the join space (JoinSpace).
func size(n Node, leaf func(*BGPNode) float64) float64 {
	switch n := n.(type) {
	case *BGPNode:
		return leaf(n)
	case *GroupNode:
		prod := 1.0
		for _, ch := range n.Children {
			prod *= size(ch, leaf)
		}
		return prod
	}
	sum := 0.0
	for _, g := range targets(n) {
		sum += size(g, leaf)
	}
	return sum
}

// levelCost computes the local cost of one level of sibling nodes
// (Equations 1–3 and 5–7): the BGP evaluation costs of the level's BGP
// nodes, plus for every node the implicit-AND cost
// fAND(|res(node)|, |res(l(node))|, |res(r(node))|) with its left and
// right siblings, plus fUNION over the branches of each UNION node.
//
// Compared to the paper's formulas, which list the fAND terms only for the
// directly affected nodes, levelCost sums the terms for every node of the
// level; the extra terms are identical on both sides of a Δ-cost
// comparison except where a transformation changes sibling result sizes,
// in which case including them makes the estimate strictly more
// consistent.
func (cm *costModel) levelCost(children []Node) float64 {
	cards := make([]float64, len(children))
	for k, ch := range children {
		cards[k] = cm.nodeCard(ch)
	}
	total := 0.0
	for k, ch := range children {
		l, r := 1.0, 1.0
		for _, c := range cards[:k] {
			l *= c
		}
		for _, c := range cards[k+1:] {
			r *= c
		}
		total += cards[k] * l * r // fAND(|res|, |res(l)|, |res(r)|)
		switch ch := ch.(type) {
		case *BGPNode:
			total += cm.estCost(ch)
		case *UnionNode:
			for _, br := range ch.Branches {
				total += cm.nodeCard(br) // fUNION = sum of branch sizes
			}
		case *OptionalNode:
			// fOPTIONAL(|res(left)|, |res(right)|) = product; the fAND
			// term above already charges the product with the siblings.
		}
	}
	return total
}

// scopeCost is the local cost that inserting a BGP node into the
// operator node at index j affects (Equations 1–3 for a merge, 5–7 for an
// inject): the level's cost plus the level cost of every group the
// operator node holds.
func (cm *costModel) scopeCost(g *GroupNode, j int) float64 {
	total := cm.levelCost(g.Children)
	for _, t := range targets(g.Children[j]) {
		total += cm.levelCost(t.Children)
	}
	return total
}

// fillEstimates computes estimates for every BGP node below n, so that
// adaptive candidate-pruning thresholds (§6) are available at evaluation
// time.
func (cm *costModel) fillEstimates(n Node) {
	for b := range bgps(n) {
		cm.ensure(b)
	}
}
