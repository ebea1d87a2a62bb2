package core

import (
	"strings"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

func TestApplySlice(t *testing.T) {
	mk := func(n int) *algebra.Bag {
		b := algebra.NewBag(1)
		for i := 0; i < n; i++ {
			b.Append(algebra.Row{store.ID(i + 1)})
		}
		return b
	}
	cases := []struct {
		n, offset, limit, want int
	}{
		{10, 0, -1, 10}, // no modifiers
		{10, 0, 3, 3},
		{10, 4, -1, 6},
		{10, 4, 3, 3},
		{10, 9, 5, 1},
		{10, 12, -1, 0}, // offset past end
		{10, 0, 0, 0},   // LIMIT 0
		{0, 2, 3, 0},    // empty input
	}
	for i, tc := range cases {
		got := applySlice(mk(tc.n), tc.offset, tc.limit)
		if got.Len() != tc.want {
			t.Errorf("case %d: applySlice(%d, off=%d, lim=%d) = %d rows, want %d",
				i, tc.n, tc.offset, tc.limit, got.Len(), tc.want)
		}
	}
}

func TestEvalStatsInstrumentation(t *testing.T) {
	st := paperDataset(t)
	q := sparql.MustParse(paperQueryPrefixes + `
SELECT * WHERE {
  ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
  OPTIONAL { ?x owl:sameAs ?same }
}`)
	tree, err := Build(q, st)
	if err != nil {
		t.Fatal(err)
	}
	// Without pruning, no BGP sees candidates.
	_, stats := evaluate(tree, st, exec.WCOEngine{}, Pruning{})
	if stats.PrunedBGPs != 0 {
		t.Errorf("unpruned run recorded %d pruned BGPs", stats.PrunedBGPs)
	}
	if len(stats.BGPResults) != 2 {
		t.Errorf("BGPResults = %v, want 2 entries", stats.BGPResults)
	}
	// With pruning, the OPTIONAL-right BGP runs with candidates.
	_, stats = evaluate(tree, st, exec.WCOEngine{}, Pruning{Enabled: true, FixedThreshold: 100})
	if stats.PrunedBGPs != 1 {
		t.Errorf("pruned run recorded %d pruned BGPs, want 1", stats.PrunedBGPs)
	}
}

func TestPruningReducesBGPResults(t *testing.T) {
	st := paperDataset(t)
	// The optional side has two matches in the dataset; with the anchor's
	// candidates only Clinton's sameAs survives the scan.
	q := sparql.MustParse(paperQueryPrefixes + `
SELECT * WHERE {
  ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
  ?x foaf:name ?n .
  OPTIONAL { ?x owl:sameAs ?same }
}`)
	tree, err := Build(q, st)
	if err != nil {
		t.Fatal(err)
	}
	_, plain := evaluate(tree, st, exec.WCOEngine{}, Pruning{})
	_, pruned := evaluate(tree, st, exec.WCOEngine{}, Pruning{Enabled: true, FixedThreshold: 100})
	last := func(s *EvalStats) int { return s.BGPResults[len(s.BGPResults)-1] }
	if last(pruned) > last(plain) {
		t.Errorf("pruned optional BGP produced more rows (%d) than plain (%d)",
			last(pruned), last(plain))
	}
}

func TestDistinctAppliedAfterProjection(t *testing.T) {
	ts, err := rdf.ParseAll(strings.NewReader(`
<http://e/a> <http://e/p> <http://e/x> .
<http://e/b> <http://e/p> <http://e/x> .
`))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.FromRDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT DISTINCT ?o WHERE { ?s <http://e/p> ?o }`)
	res, err := run(q, st, exec.WCOEngine{}, Base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bag.Len() != 1 {
		t.Errorf("DISTINCT over projection: got %d rows, want 1", res.Bag.Len())
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{Base: "base", TT: "TT", CP: "CP", Full: "full", Strategy(9): "Strategy(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}
