package bench

import (
	"context"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/lbr"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// execOnce is the one-shot query path: a fresh plan built from the
// parsed query and executed once.
func execOnce(parsed *sparql.Query, st store.Reader, engine exec.Engine, strat core.Strategy) (*core.Result, error) {
	plan, err := core.BuildPlan(parsed, st)
	if err != nil {
		return nil, err
	}
	return core.ExecPlan(context.Background(), plan, engine, strat, core.ExecOptions{})
}

// smallStores returns reduced-scale datasets so the full cross-product of
// strategies×engines stays fast in -short runs.
func smallStores(t testing.TB) map[string]*store.Store {
	t.Helper()
	return map[string]*store.Store{
		"LUBM":    LUBMStore(13),
		"DBpedia": dbpediaStore(1500),
	}
}

// TestStrategyEquivalence is the central correctness experiment: on every
// benchmark query, base, TT, CP and full must produce identical result
// bags under both engines (Theorems 1–2 and the soundness of candidate
// pruning), and the projected row multisets must agree across engines.
func TestStrategyEquivalence(t *testing.T) {
	stores := smallStores(t)
	for _, q := range AllQueries() {
		q := q
		t.Run(q.Dataset+"/"+q.ID, func(t *testing.T) {
			st := stores[q.Dataset]
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var ref *algebra.Bag
			var refName string
			for _, engine := range []exec.Engine{exec.WCOEngine{}, exec.BinaryJoinEngine{}} {
				for _, strat := range core.Strategies {
					res, err := execOnce(parsed, st, engine, strat)
					if err != nil {
						t.Fatalf("%s/%s: %v", engine.Name(), strat, err)
					}
					if ref == nil {
						ref, refName = res.Bag, engine.Name()+"/"+strat.String()
						continue
					}
					if !algebra.MultisetEqual(ref, res.Bag) {
						t.Errorf("%s/%s: %d rows, differs from %s: %d rows",
							engine.Name(), strat, res.Bag.Len(), refName, ref.Len())
					}
				}
			}
			if ref != nil && ref.Len() == 0 {
				t.Logf("note: %s/%s has empty result at this scale", q.Dataset, q.ID)
			}
		})
	}
}

// TestLBREquivalence checks that the LBR baseline computes the same bags
// as the BE-tree approaches on the comparison set q2.1–q2.6.
func TestLBREquivalence(t *testing.T) {
	stores := smallStores(t)
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := stores[dataset]
		for _, q := range Group2(dataset) {
			q := q
			t.Run(dataset+"/"+q.ID, func(t *testing.T) {
				parsed, err := sparql.Parse(q.Text)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				full, err := execOnce(parsed, st, exec.WCOEngine{}, core.Full)
				if err != nil {
					t.Fatalf("full: %v", err)
				}
				lres, err := lbr.Run(parsed, st)
				if err != nil {
					t.Fatalf("lbr: %v", err)
				}
				if full.Bag.Len() != lres.Bag.Len() {
					t.Fatalf("row count: full=%d lbr=%d", full.Bag.Len(), lres.Bag.Len())
				}
				// Variable tables may order variables differently;
				// compare via name-keyed canonical rows.
				if !sameSolutions(full.Bag, full.Vars, lres.Bag, lres.Vars) {
					t.Errorf("solution multisets differ (both %d rows)", full.Bag.Len())
				}
			})
		}
	}
}

// sameSolutions compares two bags whose rows may use different variable
// orderings, by re-keying each row on sorted variable names.
func sameSolutions(a *algebra.Bag, av *algebra.VarSet, b *algebra.Bag, bv *algebra.VarSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	counts := map[string]int{}
	for _, r := range a.All() {
		counts[nameKey(r, av)]++
	}
	for _, r := range b.All() {
		counts[nameKey(r, bv)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

func nameKey(r algebra.Row, vars *algebra.VarSet) string {
	// Variable names sorted lexicographically give a canonical order.
	names := append([]string(nil), vars.Names()...)
	// Insertion sort: tiny slices.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	key := make([]byte, 0, 8*len(names))
	for _, n := range names {
		idx, _ := vars.Lookup(n)
		id := r[idx]
		key = append(key, n...)
		key = append(key, '=', byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ';')
	}
	return string(key)
}

// TestQueriesProduceResults guards against silent emptiness: the Group 1
// queries must return non-empty results at the default scales (they are
// the substance of Figures 10–12).
func TestQueriesProduceResults(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale stores")
	}
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := StoreFor(dataset)
		for _, q := range Group1(dataset) {
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				t.Fatalf("%s/%s: %v", dataset, q.ID, err)
			}
			res, err := execOnce(parsed, st, exec.WCOEngine{}, core.Full)
			if err != nil {
				t.Fatalf("%s/%s: %v", dataset, q.ID, err)
			}
			if res.Bag.Len() == 0 {
				t.Errorf("%s/%s: empty result set", dataset, q.ID)
			}
		}
	}
}
