package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/qgen"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// randomStore builds a store over a random dataset.
func randomStore(rng *rand.Rand, n int) *store.Store {
	st, err := store.FromRDF(qgen.RandomDataset(rng, n))
	if err != nil {
		panic(err)
	}
	return st
}

// TestPropertyStrategyEquivalence is the repo's central property test: on
// random datasets and random SPARQL-UO queries, all four strategies under
// both engines must produce identical solution bags. This exercises
// Theorems 1 and 2 (the transformations), the soundness of candidate
// pruning, and the two engines' BGP semantics, in one property.
func TestPropertyStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 60+rng.Intn(120))
		text := qgen.RandomQuery(rng, qgen.DefaultConfig())
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: generated query does not parse: %v\n%s", trial, err, text)
		}
		var ref *algebra.Bag
		var refName string
		for _, engine := range []exec.Engine{exec.WCOEngine{}, exec.BinaryJoinEngine{}} {
			for _, strat := range Strategies {
				res, err := run(q, st, engine, strat)
				if err != nil {
					t.Fatalf("trial %d: %s/%s: %v\n%s", trial, engine.Name(), strat, err, text)
				}
				if ref == nil {
					ref, refName = res.Bag, engine.Name()+"/"+strat.String()
					continue
				}
				if !algebra.MultisetEqual(ref, res.Bag) {
					t.Fatalf("trial %d: %s/%s (%d rows) != %s (%d rows)\nquery: %s\nplan:\n%s",
						trial, engine.Name(), strat, res.Bag.Len(), refName, ref.Len(), text, res.Tree)
				}
			}
		}
	}
}

// TestPropertyTransformPreservesSemantics applies the transformer
// directly (no pruning, no skip heuristics) and checks the evaluation
// result is bag-identical to the untransformed tree, on random inputs.
func TestPropertyTransformPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 50+rng.Intn(100))
		text := qgen.RandomQuery(rng, qgen.DefaultConfig())
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, err := Build(q, st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		engine := exec.WCOEngine{}
		before, _ := evaluate(tree, st, engine, Pruning{})

		work := tree.Clone()
		tr := NewTransformer(context.Background(), st, engine)
		n := tr.Transform(work)
		if err := work.Validate(); err != nil {
			t.Fatalf("trial %d: transformed tree invalid after %d transformations: %v\n%s",
				trial, n, err, work)
		}
		after, _ := evaluate(work, st, engine, Pruning{})
		if !algebra.MultisetEqual(before, after) {
			t.Fatalf("trial %d: transformation changed semantics (%d → %d rows, %d transformations)\nquery: %s\nbefore:\n%s\nafter:\n%s",
				trial, before.Len(), after.Len(), n, text, tree, work)
		}
	}
}

// TestPropertyEveryAllowedInsertPreservesSemantics evaluates every
// insertion allowed permits, not only those the cost model picks: on
// random inputs, for every group of the tree and every pair of a BGP
// child i and a UNION child j or an OPTIONAL child j > i, insert on a
// clone must keep the tree valid and its evaluated bag equal to the
// untransformed one (Theorems 1 and 2, guarded by insertSafe).
func TestPropertyEveryAllowedInsertPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 400
	tr := &Transformer{} // the §6 skip is off: every allowed pair is tried
	merges, injects := 0, 0
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 50+rng.Intn(100))
		text := qgen.RandomQuery(rng, qgen.DefaultConfig())
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, err := Build(q, st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		engine := exec.WCOEngine{}
		before, _ := evaluate(tree, st, engine, Pruning{})
		for gi, g := range groupsOf(tree.Root) {
			for i, ch := range g.Children {
				if _, ok := ch.(*BGPNode); !ok {
					continue
				}
				for j, sib := range g.Children {
					_, union := sib.(*UnionNode)
					_, optional := sib.(*OptionalNode)
					if !union && !(optional && j > i) || !tr.allowed(g, i, j) {
						continue
					}
					if union {
						merges++
					} else {
						injects++
					}
					work := tree.Clone()
					insert(groupsOf(work.Root)[gi], i, j)
					if err := work.Validate(); err != nil {
						t.Fatalf("trial %d: insert(%d, %d) into group %d left an invalid tree: %v\n%s", trial, i, j, gi, err, work)
					}
					after, _ := evaluate(work, st, engine, Pruning{})
					if !algebra.MultisetEqual(before, after) {
						t.Fatalf("trial %d: insert(%d, %d) into group %d changed semantics (%d → %d rows)\nquery: %s\nbefore:\n%s\nafter:\n%s",
							trial, i, j, gi, before.Len(), after.Len(), text, tree, work)
					}
				}
			}
		}
	}
	t.Logf("%d merges, %d injects", merges, injects)
	if merges == 0 || injects == 0 {
		t.Fatalf("%d merges and %d injects allowed: the queries exercise too little", merges, injects)
	}
}

// groupsOf lists every group of a subtree in pre-order, so a tree and
// its clone list corresponding groups at the same index.
func groupsOf(g *GroupNode) []*GroupNode {
	out := []*GroupNode{g}
	for _, ch := range g.Children {
		if sub, ok := ch.(*GroupNode); ok {
			out = append(out, groupsOf(sub)...)
		}
		for _, sub := range targets(ch) {
			out = append(out, groupsOf(sub)...)
		}
	}
	return out
}

// TestPropertyCandidatePruningSound checks candidate pruning alone (both
// threshold styles) against unpruned evaluation on random inputs.
func TestPropertyCandidatePruningSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 50+rng.Intn(100))
		text := qgen.RandomQuery(rng, qgen.DefaultConfig())
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, err := Build(q, st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		engine := exec.BinaryJoinEngine{}
		plain, _ := evaluate(tree, st, engine, Pruning{})
		for _, prune := range []Pruning{
			{Enabled: true, FixedThreshold: 5},
			{Enabled: true, FixedThreshold: 1 << 20},
			{Enabled: true, Adaptive: true},
		} {
			pruned, _ := evaluate(tree, st, engine, prune)
			if !algebra.MultisetEqual(plain, pruned) {
				t.Fatalf("trial %d: pruning %+v changed semantics (%d → %d rows)\nquery: %s",
					trial, prune, plain.Len(), pruned.Len(), text)
			}
		}
	}
}

// TestTheorem1UnionDistributivity checks Theorem 1 directly at the
// algebra level: [[P1 AND (P2 UNION P3)]] = [[(P1 AND P2) UNION (P1 AND P3)]]
// for random BGPs over random data.
func TestTheorem1UnionDistributivity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 40+rng.Intn(80))
		p1, p2, p3 := randTP(rng), randTP(rng), randTP(rng)
		lhs := "SELECT * WHERE { " + p1 + " { " + p2 + " } UNION { " + p3 + " } }"
		rhs := "SELECT * WHERE { { " + p1 + " " + p2 + " } UNION { " + p1 + " " + p3 + " } }"
		a := mustEval(t, st, lhs)
		b := mustEval(t, st, rhs)
		if !algebra.MultisetEqual(a, b) {
			t.Fatalf("trial %d: Theorem 1 violated (%d vs %d rows)\nlhs: %s\nrhs: %s",
				trial, a.Len(), b.Len(), lhs, rhs)
		}
	}
}

// TestTheorem2OptionalAbsorption checks Theorem 2 directly:
// [[P1 OPTIONAL P2]] = [[P1 OPTIONAL (P1 AND P2)]].
func TestTheorem2OptionalAbsorption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 40+rng.Intn(80))
		p1, p2 := randTP(rng), randTP(rng)
		lhs := "SELECT * WHERE { " + p1 + " OPTIONAL { " + p2 + " } }"
		rhs := "SELECT * WHERE { " + p1 + " OPTIONAL { " + p1 + " " + p2 + " } }"
		a := mustEval(t, st, lhs)
		b := mustEval(t, st, rhs)
		if !algebra.MultisetEqual(a, b) {
			t.Fatalf("trial %d: Theorem 2 violated (%d vs %d rows)\nlhs: %s\nrhs: %s",
				trial, a.Len(), b.Len(), lhs, rhs)
		}
	}
}

// randTP emits one random triple pattern as text (variables shared across
// calls by construction of the tiny variable space).
func randTP(rng *rand.Rand) string {
	pos := func(kind int) string {
		switch {
		case rng.Intn(3) == 0 && kind != 1:
			return "<http://ex.org/s" + itoa(rng.Intn(12)) + ">"
		case kind == 1 && rng.Intn(8) != 0:
			return "<http://ex.org/p" + itoa(rng.Intn(5)) + ">"
		default:
			return "?v" + itoa(rng.Intn(6))
		}
	}
	return pos(0) + " " + pos(1) + " " + pos(2) + " . "
}

func itoa(n int) string { return strconv.Itoa(n) }

func mustEval(t *testing.T, st *store.Store, text string) *algebra.Bag {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	res, err := run(q, st, exec.WCOEngine{}, Base)
	if err != nil {
		t.Fatalf("eval %q: %v", text, err)
	}
	return res.Bag
}
