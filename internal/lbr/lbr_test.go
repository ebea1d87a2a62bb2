package lbr

import (
	"context"
	"math/rand"
	"testing"

	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/qgen"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

func randomStore(rng *rand.Rand, n int) *store.Store {
	st, err := store.FromRDF(qgen.RandomDataset(rng, n))
	if err != nil {
		panic(err)
	}
	return st
}

// TestPropertyLBRMatchesBEtree: on random OPTIONAL-heavy queries, LBR's
// separate-pattern + two-pass-semijoin evaluation computes the same bags
// as the BE-tree scheme.
func TestPropertyLBRMatchesBEtree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		st := randomStore(rng, 50+rng.Intn(100))
		cfg := qgen.DefaultConfig()
		cfg.NoUnion = trial%2 == 0 // half the trials exercise UNION too
		text := qgen.RandomQuery(rng, cfg)
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plan, err := core.BuildPlan(q, st)
		if err != nil {
			t.Fatalf("trial %d: core: %v", trial, err)
		}
		ref, err := core.ExecPlan(context.Background(), plan, exec.WCOEngine{}, core.Base, core.ExecOptions{})
		if err != nil {
			t.Fatalf("trial %d: core: %v", trial, err)
		}
		lres, err := Run(q, st)
		if err != nil {
			t.Fatalf("trial %d: lbr: %v", trial, err)
		}
		if ref.Bag.Len() != lres.Bag.Len() {
			t.Fatalf("trial %d: row counts differ: core=%d lbr=%d\nquery: %s",
				trial, ref.Bag.Len(), lres.Bag.Len(), text)
		}
		if !sameSolutions(t, ref, lres) {
			t.Fatalf("trial %d: solutions differ\nquery: %s", trial, text)
		}
	}
}

func sameSolutions(t *testing.T, a *core.Result, b *Result) bool {
	t.Helper()
	counts := map[string]int{}
	for _, r := range a.Bag.All() {
		counts[keyByName(r, a.Vars)]++
	}
	for _, r := range b.Bag.All() {
		counts[keyByName(r, b.Vars)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

func keyByName(r []store.ID, vars interface{ Names() []string }) string {
	names := append([]string(nil), vars.Names()...)
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	lookup := vars.(interface {
		Lookup(string) (int, bool)
	})
	out := make([]byte, 0, 16)
	for _, n := range names {
		i, _ := lookup.Lookup(n)
		id := r[i]
		out = append(out, n...)
		out = append(out, '=', byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ';')
	}
	return string(out)
}

func TestLBRInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	st := randomStore(rng, 100)
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://ex.org/p0> ?b . ?b <http://ex.org/p1> ?c .
		OPTIONAL { ?c <http://ex.org/p2> ?d . }
	}`)
	res, err := Run(q, st)
	if err != nil {
		t.Fatal(err)
	}
	// Two adjacent required patterns → forward + backward semijoin, plus
	// the master→slave semijoin for the OPTIONAL.
	if res.Semijoins < 3 {
		t.Errorf("semijoins = %d, want ≥ 3", res.Semijoins)
	}
	if res.Materialized == 0 {
		t.Error("expected per-pattern materialization to be recorded")
	}
}

func TestLBRProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := randomStore(rng, 60)
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <http://ex.org/p0> ?b . }`)
	res, err := Run(q, st)
	if err != nil {
		t.Fatal(err)
	}
	bIdx, ok := res.Vars.Lookup("b")
	if !ok {
		t.Fatal("variable b missing from table")
	}
	for _, r := range res.Bag.All() {
		if r[bIdx] != store.None {
			t.Fatal("projection did not clear ?b")
		}
	}
}
