package core

import (
	"context"
	"strings"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// paperDataset builds the example RDF dataset of Table 1.
func paperDataset(t testing.TB) *store.Store {
	t.Helper()
	const nt = `
@prefix dbr: <http://dbpedia.org/resource/> .
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix dbp: <http://dbpedia.org/property/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix fbp: <http://freebase.example.org/> .
dbr:George_W._Bush foaf:name "George Walker Bush"@en .
dbr:George_W._Bush rdfs:label "George W. Bush"@en .
dbr:George_W._Bush dbo:wikiPageWikiLink dbr:President_of_the_United_States .
dbr:Bill_Clinton foaf:name "Bill Clinton"@en .
dbr:Bill_Clinton dbo:wikiPageWikiLink dbr:President_of_the_United_States .
dbr:Bill_Clinton dbp:birthDate "1946-08-19"^^<http://www.w3.org/2001/XMLSchema#date> .
dbr:Bill_Clinton owl:sameAs fbp:Clinton_William_Jefferson_1946- .
`
	ts, err := rdf.ParseAll(strings.NewReader(nt))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	st, err := store.FromRDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// run is the one-shot funnel the tests drive: BuildPlan + a sequential,
// non-cancellable ExecPlan.
func run(q *sparql.Query, st store.Reader, engine exec.Engine, strat Strategy) (*Result, error) {
	plan, err := BuildPlan(q, st)
	if err != nil {
		return nil, err
	}
	return ExecPlan(context.Background(), plan, engine, strat, ExecOptions{})
}

// evaluate runs Algorithm 1 on a tree sequentially and without
// cancellation.
func evaluate(t *Tree, st store.Reader, engine exec.Engine, prune Pruning) (*algebra.Bag, *EvalStats) {
	bag, stats, _ := EvaluateContext(context.Background(), t, st, engine, prune)
	return bag, stats
}

const paperQueryPrefixes = `
PREFIX dbr: <http://dbpedia.org/resource/>
PREFIX dbo: <http://dbpedia.org/ontology/>
PREFIX dbp: <http://dbpedia.org/property/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
`

func TestPaperFigure2Query(t *testing.T) {
	st := paperDataset(t)
	// The query of Figure 2(a): UNION of name/label, nested OPTIONAL
	// with a UNION, and a birthDate pattern.
	q, err := sparql.Parse(paperQueryPrefixes + `
SELECT ?x ?name ?birth ?same WHERE {
  ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
  { ?x foaf:name ?name } UNION { ?x rdfs:label ?name }
  OPTIONAL {
    { ?x owl:sameAs ?same } UNION { ?same owl:sameAs ?x }
  }
  ?x dbp:birthDate ?birth .
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, engine := range []exec.Engine{exec.WCOEngine{}, exec.BinaryJoinEngine{}} {
		for _, strat := range Strategies {
			res, err := run(q, st, engine, strat)
			if err != nil {
				t.Fatalf("%s/%s: %v", engine.Name(), strat, err)
			}
			// Only Bill Clinton has a birthDate; he has foaf:name (not
			// rdfs:label) and one owl:sameAs — exactly 1 solution.
			if got := res.Bag.Len(); got != 1 {
				t.Errorf("%s/%s: got %d solutions, want 1\nplan:\n%s",
					engine.Name(), strat, got, res.Tree)
			}
		}
	}
}

func TestBETreeShapePaperExample(t *testing.T) {
	st := paperDataset(t)
	q := sparql.MustParse(paperQueryPrefixes + `
SELECT ?x ?name ?birth ?same WHERE {
  ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
  { ?x foaf:name ?name } UNION { ?x rdfs:label ?name }
  OPTIONAL {
    { ?x owl:sameAs ?same } UNION { ?same owl:sameAs ?x }
  }
  ?x dbp:birthDate ?birth .
}`)
	tree, err := Build(q, st)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Figure 5: t1 and t6 coalesce into one BGP node; t2, t3, t5, t6 are
	// single-pattern BGPs inside UNION branches → CountBGP = 5.
	if got := tree.CountBGP(); got != 5 {
		t.Errorf("CountBGP = %d, want 5\n%s", got, tree)
	}
	if got := tree.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3\n%s", got, tree)
	}
	// Root level: the coalesced BGP {t1,t6}, the UNION, the OPTIONAL.
	if got := len(tree.Root.Children); got != 3 {
		t.Fatalf("root children = %d, want 3\n%s", got, tree)
	}
	bgp, ok := tree.Root.Children[0].(*BGPNode)
	if !ok || len(bgp.Enc) != 2 {
		t.Errorf("root child 0: want coalesced 2-pattern BGP, got %T\n%s",
			tree.Root.Children[0], tree)
	}
}

func TestOptionalKeepsUnmatchedRows(t *testing.T) {
	st := paperDataset(t)
	q := sparql.MustParse(paperQueryPrefixes + `
SELECT ?x ?same WHERE {
  ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
  OPTIONAL { ?x owl:sameAs ?same }
}`)
	for _, strat := range Strategies {
		res, err := run(q, st, exec.WCOEngine{}, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		// Both presidents are kept: Clinton with ?same bound, Bush without.
		if got := res.Bag.Len(); got != 2 {
			t.Errorf("%s: got %d rows, want 2", strat, got)
		}
		sameIdx, _ := res.Vars.Lookup("same")
		bound := 0
		for _, r := range res.Bag.All() {
			if r[sameIdx] != store.None {
				bound++
			}
		}
		if bound != 1 {
			t.Errorf("%s: got %d bound ?same, want 1", strat, bound)
		}
	}
}

func TestUnionCollectsBothBranches(t *testing.T) {
	st := paperDataset(t)
	q := sparql.MustParse(paperQueryPrefixes + `
SELECT ?x ?name WHERE {
  ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
  { ?x foaf:name ?name } UNION { ?x rdfs:label ?name }
}`)
	for _, strat := range Strategies {
		res, err := run(q, st, exec.BinaryJoinEngine{}, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		// Bush: foaf:name + rdfs:label; Clinton: foaf:name → 3 rows.
		if got := res.Bag.Len(); got != 3 {
			t.Errorf("%s: got %d rows, want 3\nplan:\n%s", strat, got, res.Tree)
		}
	}
}

func TestRoundTripTerm(t *testing.T) {
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/x"),
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("hello", "en"),
		rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.NewBlank("b0"),
	}
	d := store.NewDict()
	for _, tm := range terms {
		id := d.Encode(tm)
		if got := d.Terms().Term(id); !got.Equal(tm) {
			t.Errorf("round trip %v → %v", tm, got)
		}
	}
}
