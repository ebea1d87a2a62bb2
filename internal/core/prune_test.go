package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// countingEngine records which BGPs reach the wrapped engine: by the
// address of their first pattern, which is the BGP node's own Enc slice,
// and whether the call carried candidate sets.
type countingEngine struct {
	exec.Engine
	calls     map[*exec.Pattern]int
	withCands int
}

func (e *countingEngine) EvalBGPTop(ctx context.Context, st store.Reader, bgp exec.BGP, width int, cand exec.Candidates, max int, pulled *int) *algebra.Bag {
	e.calls[&bgp[0]]++
	if cand != nil {
		e.withCands++
	}
	return e.Engine.EvalBGPTop(ctx, st, bgp, width, cand, max, pulled)
}

// bgpNodes lists the BGP leaves of a BE-tree in depth-first order.
func bgpNodes(n Node) []*BGPNode {
	switch n := n.(type) {
	case *BGPNode:
		return []*BGPNode{n}
	case *GroupNode:
		var out []*BGPNode
		for _, ch := range n.Children {
			out = append(out, bgpNodes(ch)...)
		}
		return out
	case *UnionNode:
		var out []*BGPNode
		for _, br := range n.Branches {
			out = append(out, bgpNodes(br)...)
		}
		return out
	case *OptionalNode:
		return bgpNodes(n.Right)
	}
	return nil
}

// TestEmptyContextPrunesSubtree runs a query shaped like DBpedia q1.3: a
// one-row required part whose first OPTIONAL BGP matches nothing, inside
// an OPTIONAL that also holds a UNION and nested OPTIONALs. Every nested
// BGP then sees an empty context. Under pruning (CP, Full) none of them
// may reach the engine; each records 0 rows and counts as pruned, and the
// answer equals Base's. Under Base every BGP still reaches the engine.
func TestEmptyContextPrunesSubtree(t *testing.T) {
	var nt strings.Builder
	nt.WriteString(`@prefix ex: <http://ex.org/> .
ex:a ex:name "A" .
ex:b ex:name "B" .
ex:doc ex:mentions ex:unlinked .
`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&nt, "ex:m%d ex:p ex:v%d .\nex:m%d ex:q ex:v%d .\nex:m%d ex:r ex:c%d .\nex:c%d ex:s ex:v%d .\n", i, i, i, i, i, i, i, i)
	}
	ts, err := rdf.ParseAll(strings.NewReader(nt.String()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.FromRDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT * WHERE {
  ?x ex:name "A" .
  OPTIONAL {
    ?x ex:unlinked ?m .
    { ?m ex:p ?a } UNION { ?m ex:q ?b }
    OPTIONAL { ?m ex:r ?c . OPTIONAL { ?c ex:s ?d } }
    OPTIONAL { ?m ex:q ?e }
  }
}`), st)
	if err != nil {
		t.Fatal(err)
	}
	// nested lists the BGPs that see an empty context: every BGP of the
	// OPTIONAL's group after its first child, the BGP matching nothing.
	// Full may inject that BGP into the nested OPTIONALs; they stay nested.
	nested := func(tr *Tree) []*BGPNode {
		opt, ok := tr.Root.Children[1].(*OptionalNode)
		if !ok {
			t.Fatalf("root's second child is %T, want the OPTIONAL:\n%v", tr.Root.Children[1], tr)
		}
		if _, ok := opt.Right.Children[0].(*BGPNode); !ok {
			t.Fatalf("the OPTIONAL's first child is %T, want the BGP matching nothing:\n%v", opt.Right.Children[0], tr)
		}
		var out []*BGPNode
		for _, ch := range opt.Right.Children[1:] {
			out = append(out, bgpNodes(ch)...)
		}
		return out
	}
	for _, engine := range []exec.Engine{exec.WCOEngine{}, exec.BinaryJoinEngine{}} {
		execute := func(strat Strategy) (*Result, *countingEngine) {
			ce := &countingEngine{Engine: engine, calls: map[*exec.Pattern]int{}}
			res, err := ExecPlan(context.Background(), plan, ce, strat, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return res, ce
		}
		base, ce := execute(Base)
		nodes := bgpNodes(base.Tree.Root)
		if base.Bag.Len() != 1 || len(nodes) != 7 {
			t.Fatalf("%s: base returned %d rows over %d BGPs, want 1 row over 7", engine.Name(), base.Bag.Len(), len(nodes))
		}
		for _, b := range nodes {
			if ce.calls[&b.Enc[0]] != 1 {
				t.Errorf("%s base: BGP %v reached the engine %d times, want 1", engine.Name(), b.Src, ce.calls[&b.Enc[0]])
			}
		}
		for _, strat := range []Strategy{CP, Full} {
			res, ce := execute(strat)
			name := fmt.Sprintf("%s/%v", engine.Name(), strat)
			if !slices.EqualFunc(bagRows(res.Bag), bagRows(base.Bag), slices.Equal) {
				t.Errorf("%s: rows %v, want base's %v", name, bagRows(res.Bag), bagRows(base.Bag))
			}
			skipped := nested(res.Tree)
			if len(skipped) != 5 {
				t.Fatalf("%s: %d BGPs below the empty context, want 5:\n%v", name, len(skipped), res.Tree)
			}
			for _, b := range skipped {
				if n := ce.calls[&b.Enc[0]]; n != 0 {
					t.Errorf("%s: BGP %v under an empty context reached the engine %d times", name, b.Src, n)
				}
				if sz, ok := res.Stats.bgpSizes[b]; !ok || sz != 0 {
					t.Errorf("%s: BGP %v recorded size %d (recorded %v), want 0", name, b.Src, sz, ok)
				}
			}
			if got := len(res.Stats.BGPResults); got != len(bgpNodes(res.Tree.Root)) {
				t.Errorf("%s: BGPResults has %d entries for %d BGPs", name, got, len(bgpNodes(res.Tree.Root)))
			}
			if want := len(skipped) + ce.withCands; res.Stats.PrunedBGPs != want {
				t.Errorf("%s: PrunedBGPs = %d, want %d pruned by the empty context + %d with candidates",
					name, res.Stats.PrunedBGPs, len(skipped), ce.withCands)
			}
		}
	}
}

// bagRows lists a bag's rows in physical order.
func bagRows(b *algebra.Bag) []algebra.Row {
	var out []algebra.Row
	for _, r := range b.All() {
		out = append(out, r)
	}
	return out
}
