// Package core implements the paper's primary contribution: the BGP-based
// Evaluation tree (BE-tree, Definition 8) plan representation for
// SPARQL-UO queries, its semantics-preserving merge and inject
// transformations (Definitions 9–10, Theorems 1–2), the cost model of
// §5.1 (Equations 1–8), the cost-driven greedy plan selection of §5.2
// (Algorithms 2–4), the BGP-based evaluation scheme (Algorithm 1), and the
// query-time candidate pruning optimization of §6.
package core

import (
	"fmt"
	"iter"
	"strings"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// Node is a BE-tree node. The concrete types mirror Definition 8:
// GroupNode (group graph pattern), BGPNode (leaf), UnionNode and
// OptionalNode (operator nodes).
type Node interface {
	isNode()
	clone() Node
}

// GroupNode is a group graph pattern node; its children are evaluated in
// order and combined by implicit AND (joins), with UNION and OPTIONAL
// children applying their respective operators (Algorithm 1).
type GroupNode struct {
	Children []Node
}

// BGPNode is a leaf: a maximal basic graph pattern. Src keeps the source
// triple patterns for display; Enc is the dictionary-encoded form the
// engines execute.
type BGPNode struct {
	Src []sparql.TriplePattern
	Enc exec.BGP

	// estCard/estCost memoize the engine's estimates (estValid guards).
	estCard, estCost float64
	estValid         bool
}

// UnionNode links two or more UNION'ed group graph patterns.
type UnionNode struct {
	Branches []*GroupNode
}

// OptionalNode holds the OPTIONAL-right group graph pattern; the
// OPTIONAL-left pattern is implicitly everything before it in the parent.
type OptionalNode struct {
	Right *GroupNode
}

func (*GroupNode) isNode()    {}
func (*BGPNode) isNode()      {}
func (*UnionNode) isNode()    {}
func (*OptionalNode) isNode() {}

func (g *GroupNode) clone() Node {
	c := &GroupNode{Children: make([]Node, len(g.Children))}
	for i, ch := range g.Children {
		c.Children[i] = ch.clone()
	}
	return c
}

func (b *BGPNode) clone() Node {
	c := &BGPNode{
		Src: append([]sparql.TriplePattern(nil), b.Src...),
		Enc: append(exec.BGP(nil), b.Enc...),
	}
	c.estCard, c.estCost, c.estValid = b.estCard, b.estCost, b.estValid
	return c
}

func (u *UnionNode) clone() Node {
	c := &UnionNode{Branches: make([]*GroupNode, len(u.Branches))}
	for i, br := range u.Branches {
		c.Branches[i] = br.clone().(*GroupNode)
	}
	return c
}

func (o *OptionalNode) clone() Node {
	return &OptionalNode{Right: o.Right.clone().(*GroupNode)}
}

// Tree is a BE-tree together with the query-level variable table,
// projection list and solution modifiers.
type Tree struct {
	Root     *GroupNode
	Vars     *algebra.VarSet
	Select   []string
	Distinct bool
	// OrderBy holds the requested sort keys as variable positions, in
	// significance order; empty means no requested order.
	OrderBy []algebra.SortKey
	Limit   int // -1 = unlimited
	Offset  int
}

// Clone deep-copies the tree (sharing the variable table, which is
// immutable after construction).
func (t *Tree) Clone() *Tree {
	return &Tree{
		Root:     t.Root.clone().(*GroupNode),
		Vars:     t.Vars,
		Select:   t.Select,
		Distinct: t.Distinct,
		OrderBy:  t.OrderBy,
		Limit:    t.Limit,
		Offset:   t.Offset,
	}
}

// Build constructs the BE-tree of a parsed query against a store's
// dictionary: triple patterns are encoded, sibling triple patterns are
// coalesced into maximal BGP nodes (Definitions 3–5), and each BGP node is
// placed where its leftmost constituent triple pattern originally resided.
func Build(q *sparql.Query, st store.Reader) (*Tree, error) {
	t := &Tree{
		Vars:     algebra.NewVarSet(),
		Select:   q.Select,
		Distinct: q.Distinct,
		Limit:    q.Limit,
		Offset:   q.Offset,
	}
	root, err := buildGroup(q.Where, st, t.Vars)
	if err != nil {
		return nil, err
	}
	t.Root = root
	for _, v := range q.Select {
		if _, ok := t.Vars.Lookup(v); !ok {
			// Projection of a variable that never occurs: legal SPARQL,
			// always unbound. Intern it so rows have a slot.
			t.Vars.Intern(v)
		}
	}
	for _, k := range q.OrderBy {
		// Sorting on a variable that never occurs is legal: every row
		// carries None there, so the key ties everywhere. Intern it so
		// the key has a slot. A repeated variable keeps its first
		// occurrence — later mentions compare equal and can never break
		// a tie.
		col := t.Vars.Intern(k.Var)
		dup := false
		for _, have := range t.OrderBy {
			if have.Col == col {
				dup = true
				break
			}
		}
		if !dup {
			t.OrderBy = append(t.OrderBy, algebra.SortKey{Col: col, Desc: k.Desc})
		}
	}
	return t, nil
}

func buildGroup(g *sparql.Group, st store.Reader, vars *algebra.VarSet) (*GroupNode, error) {
	node := &GroupNode{}
	for _, e := range g.Elements {
		switch e := e.(type) {
		case sparql.TriplePattern:
			enc := encodePattern(e, st, vars)
			node.Children = append(node.Children, &BGPNode{
				Src: []sparql.TriplePattern{e},
				Enc: exec.BGP{enc},
			})
		case *sparql.Group:
			sub, err := buildGroup(e, st, vars)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, sub)
		case *sparql.Union:
			if len(e.Branches) < 2 {
				return nil, fmt.Errorf("core: UNION node needs ≥2 branches")
			}
			u := &UnionNode{}
			for _, br := range e.Branches {
				sub, err := buildGroup(br, st, vars)
				if err != nil {
					return nil, err
				}
				u.Branches = append(u.Branches, sub)
			}
			node.Children = append(node.Children, u)
		case *sparql.Optional:
			sub, err := buildGroup(e.Group, st, vars)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, &OptionalNode{Right: sub})
		default:
			return nil, fmt.Errorf("core: unknown element type %T", e)
		}
	}
	coalesceSiblings(node)
	return node, nil
}

func encodePattern(tp sparql.TriplePattern, st store.Reader, vars *algebra.VarSet) exec.Pattern {
	enc := func(tv sparql.TermOrVar) exec.Pos {
		if tv.IsVar {
			return exec.Var(vars.Intern(tv.Var))
		}
		id, _ := st.Dict().Lookup(tv.Term) // 0 (None) when absent → impossible pattern
		return exec.Const(id)
	}
	return exec.Pattern{S: enc(tp.S), P: enc(tp.P), O: enc(tp.O)}
}

// coalesceSiblings merges sibling BGP nodes into maximal BGPs: any two
// sibling BGP nodes that are coalescable (share a subject/object variable,
// Definition 4) are unioned, transitively, until no further coalescing is
// possible. Each merged node is placed at the position of its leftmost
// constituent.
func coalesceSiblings(g *GroupNode) {
	for {
		i, j := findCoalescablePair(g.Children)
		if i < 0 {
			return
		}
		a := g.Children[i].(*BGPNode)
		b := g.Children[j].(*BGPNode)
		a.Src = append(a.Src, b.Src...)
		a.Enc = append(a.Enc, b.Enc...)
		a.estValid = false
		g.Children = append(g.Children[:j], g.Children[j+1:]...)
	}
}

func findCoalescablePair(children []Node) (int, int) {
	for i := 0; i < len(children); i++ {
		a, ok := children[i].(*BGPNode)
		if !ok {
			continue
		}
		for j := i + 1; j < len(children); j++ {
			b, ok := children[j].(*BGPNode)
			if !ok {
				continue
			}
			if bgpCoalescable(a.Enc, b.Enc) {
				return i, j
			}
		}
	}
	return -1, -1
}

// bgpCoalescable implements Definition 4 on encoded BGPs: some pair of
// constituent patterns shares a subject/object variable.
func bgpCoalescable(a, b exec.BGP) bool {
	av := map[int]bool{}
	for _, p := range a {
		for _, v := range subjObjVarIdx(p) {
			av[v] = true
		}
	}
	for _, p := range b {
		for _, v := range subjObjVarIdx(p) {
			if av[v] {
				return true
			}
		}
	}
	return false
}

func subjObjVarIdx(p exec.Pattern) []int {
	var out []int
	if p.S.IsVar {
		out = append(out, p.S.Var)
	}
	if p.O.IsVar && (!p.S.IsVar || p.O.Var != p.S.Var) {
		out = append(out, p.O.Var)
	}
	return out
}

// CountBGP returns the number of BGP leaf nodes of the tree (the paper's
// Count_BGP(Q) metric, §7.1).
func (t *Tree) CountBGP() int {
	n := 0
	for range bgps(t.Root) {
		n++
	}
	return n
}

// Depth returns the maximum nesting depth of group graph patterns (the
// paper's Depth(Q) metric, §7.1). The outermost group contributes 1.
func (t *Tree) Depth() int { return depthOf(t.Root) }

func depthOf(n Node) int {
	d := 0
	if g, ok := n.(*GroupNode); ok {
		for _, ch := range g.Children {
			d = max(d, depthOf(ch))
		}
		return d + 1
	}
	for _, g := range targets(n) {
		d = max(d, depthOf(g))
	}
	return d
}

// targets returns the groups an operator node holds: every branch of a
// UNION, the right group of an OPTIONAL, nil for a group or a BGP. They
// are the groups a merge or an inject inserts into (see insert).
func targets(n Node) []*GroupNode {
	switch n := n.(type) {
	case *UnionNode:
		return n.Branches
	case *OptionalNode:
		return []*GroupNode{n.Right}
	}
	return nil
}

// bgps yields every BGP leaf below n, depth first in sibling order.
func bgps(n Node) iter.Seq[*BGPNode] {
	return func(yield func(*BGPNode) bool) { walkBGPs(n, yield) }
}

func walkBGPs(n Node, yield func(*BGPNode) bool) bool {
	switch n := n.(type) {
	case *BGPNode:
		return yield(n)
	case *GroupNode:
		for _, ch := range n.Children {
			if !walkBGPs(ch, yield) {
				return false
			}
		}
		return true
	}
	for _, g := range targets(n) {
		if !walkBGPs(g, yield) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of Definition 8: UNION nodes
// have ≥2 group children, OPTIONAL nodes exactly one, BGP nodes are
// non-empty, and BGP siblings are maximal (no coalescable pair remains).
func (t *Tree) Validate() error { return validate(t.Root) }

func validate(n Node) error {
	switch n := n.(type) {
	case *BGPNode:
		if len(n.Enc) == 0 {
			return fmt.Errorf("core: empty BGP node")
		}
	case *GroupNode:
		if i, j := findCoalescablePair(n.Children); i >= 0 {
			return fmt.Errorf("core: non-maximal BGP siblings at %d,%d", i, j)
		}
		for _, ch := range n.Children {
			if err := validate(ch); err != nil {
				return err
			}
		}
	case *UnionNode:
		if len(n.Branches) < 2 {
			return fmt.Errorf("core: UNION node with %d branches", len(n.Branches))
		}
		for _, br := range n.Branches {
			if err := validate(br); err != nil {
				return err
			}
		}
	case *OptionalNode:
		if n.Right == nil {
			return fmt.Errorf("core: OPTIONAL node without child")
		}
		return validate(n.Right)
	}
	return nil
}

// String renders the tree for plan inspection.
func (t *Tree) String() string {
	var b strings.Builder
	writeNode(&b, t.Root, 0, t)
	return b.String()
}

func writeNode(b *strings.Builder, n Node, depth int, t *Tree) {
	ind := strings.Repeat("  ", depth)
	switch n := n.(type) {
	case *GroupNode:
		b.WriteString(ind + "Group\n")
		for _, ch := range n.Children {
			writeNode(b, ch, depth+1, t)
		}
	case *BGPNode:
		fmt.Fprintf(b, "%sBGP (%d patterns)\n", ind, len(n.Enc))
		for _, tp := range n.Src {
			b.WriteString(ind + "  " + tp.String() + "\n")
		}
	case *UnionNode:
		b.WriteString(ind + "UNION\n")
		for _, br := range n.Branches {
			writeNode(b, br, depth+1, t)
		}
	case *OptionalNode:
		b.WriteString(ind + "OPTIONAL\n")
		writeNode(b, n.Right, depth+1, t)
	}
}
