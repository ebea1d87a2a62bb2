package qgen

import (
	"math/rand"
	"testing"

	"sparqluo/internal/sparql"
)

func TestGeneratedQueriesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		text := RandomQuery(rng, DefaultConfig())
		for _, text := range []string{text, RandomModifiers(rng, text)} {
			if _, err := sparql.Parse(text); err != nil {
				t.Fatalf("trial %d: generated query does not parse: %v\n%s", i, err, text)
			}
		}
	}
}

func TestNoUnionConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	cfg.NoUnion = true
	for i := 0; i < 200; i++ {
		text := RandomQuery(rng, cfg)
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if containsUnion(q.Where) {
			t.Fatalf("trial %d: NoUnion query contains UNION:\n%s", i, text)
		}
	}
}

func containsUnion(g *sparql.Group) bool {
	for _, e := range g.Elements {
		switch e := e.(type) {
		case *sparql.Union:
			return true
		case *sparql.Group:
			if containsUnion(e) {
				return true
			}
		case *sparql.Optional:
			if containsUnion(e.Group) {
				return true
			}
		}
	}
	return false
}

func TestRandomDatasetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := RandomDataset(rng, 100)
	if len(ts) != 100 {
		t.Fatalf("len = %d", len(ts))
	}
	for _, tr := range ts {
		if !tr.Valid() {
			t.Fatalf("invalid triple %v", tr)
		}
	}
}

func TestDatasetDeterministicPerSeed(t *testing.T) {
	a := RandomDataset(rand.New(rand.NewSource(7)), 50)
	b := RandomDataset(rand.New(rand.NewSource(7)), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("dataset generation must be deterministic per seed")
		}
	}
}
