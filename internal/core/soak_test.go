package core

import (
	"math/rand"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/qgen"
	"sparqluo/internal/sparql"
)

// TestPropertyDeepQueryEquivalence is the heavier sibling of
// TestPropertyStrategyEquivalence: deeper nesting and wider groups, the
// regime where transformation interactions (multi-level greedy decisions,
// candidate chains through several OPTIONAL levels) are most intricate.
func TestPropertyDeepQueryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("deep soak")
	}
	rng := rand.New(rand.NewSource(99))
	cfg := qgen.Config{MaxDepth: 4, MaxElements: 5}
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 80+rng.Intn(160))
		text := qgen.RandomQuery(rng, cfg)
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var ref *algebra.Bag
		for _, strat := range Strategies {
			res, err := run(q, st, exec.WCOEngine{}, strat)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, strat, err)
			}
			if ref == nil {
				ref = res.Bag
				continue
			}
			if !algebra.MultisetEqual(ref, res.Bag) {
				t.Fatalf("trial %d: %s diverges (%d vs %d rows)\nquery: %s\nplan:\n%s",
					trial, strat, res.Bag.Len(), ref.Len(), text, res.Tree)
			}
		}
	}
}
