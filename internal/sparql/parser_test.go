package sparql

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"sparqluo/internal/rdf"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(`SELECT ?x ?y WHERE { ?x <http://e/p> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0] != "x" || q.Select[1] != "y" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Where.Elements) != 1 {
		t.Fatalf("elements = %d", len(q.Where.Elements))
	}
	tp, ok := q.Where.Elements[0].(TriplePattern)
	if !ok {
		t.Fatalf("element type %T", q.Where.Elements[0])
	}
	if !tp.S.IsVar || tp.S.Var != "x" {
		t.Errorf("S = %+v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term.Value != "http://e/p" {
		t.Errorf("P = %+v", tp.P)
	}
}

func TestParseSelectStarAndBare(t *testing.T) {
	for _, src := range []string{
		`SELECT * WHERE { ?x <http://e/p> ?y }`,
		`SELECT WHERE { ?x <http://e/p> ?y }`, // the paper's bare form
		`SELECT { ?x <http://e/p> ?y }`,       // WHERE is optional
	} {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(q.Select) != 0 {
			t.Errorf("%q: Select = %v, want empty (all)", src, q.Select)
		}
	}
}

func TestParseDistinct(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("Distinct not set")
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://ex.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT * WHERE { ex:s rdf:type ex:C . ?x a ex:C . }`)
	if err != nil {
		t.Fatal(err)
	}
	tp := q.Where.Elements[0].(TriplePattern)
	if tp.S.Term.Value != "http://ex.org/s" {
		t.Errorf("prefix expansion: %q", tp.S.Term.Value)
	}
	tp2 := q.Where.Elements[1].(TriplePattern)
	if tp2.P.Term.Value != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("'a' shorthand: %q", tp2.P.Term.Value)
	}
}

func TestParseUnionChain(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		{ ?x <http://e/a> ?y } UNION { ?x <http://e/b> ?y } UNION { ?x <http://e/c> ?y }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := q.Where.Elements[0].(*Union)
	if !ok {
		t.Fatalf("element type %T", q.Where.Elements[0])
	}
	if len(u.Branches) != 3 {
		t.Errorf("branches = %d, want 3", len(u.Branches))
	}
}

func TestParseNestedOptional(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?x <http://e/p> ?y .
		OPTIONAL { ?y <http://e/q> ?z . OPTIONAL { ?z <http://e/r> ?w } }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := q.Where.Elements[1].(*Optional)
	if !ok {
		t.Fatalf("element type %T", q.Where.Elements[1])
	}
	if len(opt.Group.Elements) != 2 {
		t.Fatalf("inner elements = %d", len(opt.Group.Elements))
	}
	if _, ok := opt.Group.Elements[1].(*Optional); !ok {
		t.Errorf("nested optional type %T", opt.Group.Elements[1])
	}
}

func TestParseNestedGroupNotUnion(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { { ?x <http://e/p> ?y . } ?x <http://e/q> ?z . }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Where.Elements[0].(*Group); !ok {
		t.Errorf("element type %T, want *Group", q.Where.Elements[0])
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?x <http://e/p> "plain" .
		?x <http://e/p> "hi"@en .
		?x <http://e/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
		?x <http://e/p> "esc\"aped\n" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) rdf.Term { return q.Where.Elements[i].(TriplePattern).O.Term }
	if get(0).Value != "plain" {
		t.Errorf("plain: %+v", get(0))
	}
	if get(1).Lang != "en" {
		t.Errorf("lang: %+v", get(1))
	}
	if get(2).Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Errorf("typed: %+v", get(2))
	}
	if get(3).Value != "esc\"aped\n" {
		t.Errorf("escaped: %q", get(3).Value)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no select", `{ ?x ?p ?y }`},
		{"unclosed group", `SELECT * WHERE { ?x ?p ?y .`},
		{"dangling union", `SELECT * WHERE { UNION { ?x ?p ?y } }`},
		{"undeclared prefix", `SELECT * WHERE { ex:a ex:b ex:c }`},
		{"a in subject", `SELECT * WHERE { a <http://e/p> ?x }`},
		{"trailing tokens", `SELECT * WHERE { ?x <http://e/p> ?y } extra:tok`},
		{"empty var", `SELECT ? WHERE { ?x <http://e/p> ?y }`},
		{"unterminated literal", `SELECT * WHERE { ?x <http://e/p> "abc }`},
		{"bad prefix decl", `PREFIX <http://e/> SELECT * WHERE { ?x <http://e/p> ?y }`},
		{"datatype without a colon", `SELECT * WHERE { ?x <http://e/p> "1"^^int }`}, // used to panic
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("want error for %q", tc.src)
			}
		})
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT ?x WHERE {
		?x <http://e/p> ?y .
		{ ?x <http://e/a> ?z } UNION { ?x <http://e/b> ?z }
		OPTIONAL { ?y <http://e/q> ?w . }
	}`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// The normalized rendering must itself parse to the same structure.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("rendered query does not parse: %v\n%s", err, q.String())
	}
	if q2.String() != q.String() {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

func TestTriplePatternVars(t *testing.T) {
	tp := TriplePattern{S: Variable("x"), P: Variable("p"), O: Variable("x")}
	vars := tp.Vars()
	if len(vars) != 2 {
		t.Errorf("Vars = %v, want [x p]", vars)
	}
}

func TestParseOrderBy(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY ?y DESC ?x LIMIT 5 OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	want := []OrderKey{{Var: "y"}, {Var: "x", Desc: true}}
	if len(q.OrderBy) != len(want) {
		t.Fatalf("OrderBy = %+v, want %+v", q.OrderBy, want)
	}
	for i, k := range want {
		if q.OrderBy[i] != k {
			t.Errorf("OrderBy[%d] = %+v, want %+v", i, q.OrderBy[i], k)
		}
	}
	if q.Limit != 5 || q.Offset != 2 {
		t.Errorf("Limit/Offset = %d/%d, want 5/2", q.Limit, q.Offset)
	}
	// ASC is the default and may be spelled out; modifiers may come in
	// any order relative to LIMIT/OFFSET.
	q2, err := Parse(`SELECT ?x WHERE { ?x <http://e/p> ?y } LIMIT 5 ORDER BY ASC ?y`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.OrderBy) != 1 || q2.OrderBy[0] != (OrderKey{Var: "y"}) {
		t.Errorf("OrderBy = %+v", q2.OrderBy)
	}
	// The W3C spelling brackets the key; it mixes with the bare forms.
	for src, want := range map[string][]OrderKey{
		`SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY DESC(?x)`:                {{Var: "x", Desc: true}},
		`SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY ASC( ?y ) DESC(?x) ?y`:   {{Var: "y"}, {Var: "x", Desc: true}, {Var: "y"}},
		`SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY desc($x)asc(?y) LIMIT 1`: {{Var: "x", Desc: true}, {Var: "y"}},
	} {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if !slices.Equal(q.OrderBy, want) {
			t.Errorf("%s: OrderBy = %+v, want %+v", src, q.OrderBy, want)
		}
	}
}

func TestParseOrderByErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"missing BY", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER ?y`},
		{"no keys", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY LIMIT 5`},
		{"non-variable key", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY <http://e/p>`},
		{"desc without var", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY DESC`},
		{"unclosed bracket", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY DESC(?x`},
		{"empty bracket", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY DESC()`},
		{"bracketed IRI", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY DESC(<http://e/x>)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("want error for %q", tc.src)
			}
		})
	}
}

func TestParseDuplicateModifiers(t *testing.T) {
	cases := []struct{ name, src, wantMsg string }{
		{"limit", `SELECT * WHERE { ?x <http://e/p> ?y } LIMIT 5 LIMIT 6`, "duplicate LIMIT clause"},
		{"offset", `SELECT * WHERE { ?x <http://e/p> ?y } OFFSET 1 LIMIT 5 OFFSET 2`, "duplicate OFFSET clause"},
		{"order by", `SELECT * WHERE { ?x <http://e/p> ?y } ORDER BY ?x ORDER BY ?y`, "duplicate ORDER BY clause"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("want error for %q", tc.src)
			}
			var perr *Error
			if !errors.As(err, &perr) {
				t.Fatalf("error type %T, want *Error: %v", err, err)
			}
			if !strings.Contains(perr.Msg, tc.wantMsg) {
				t.Errorf("message %q, want substring %q", perr.Msg, tc.wantMsg)
			}
			if perr.Pos <= 0 {
				t.Errorf("Pos = %d, want a position inside the text", perr.Pos)
			}
		})
	}
}

func TestOrderByStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		`SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY ?y DESC ?x LIMIT 3 OFFSET 1`,
		`SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY ASC(?y) DESC(?x) LIMIT 3 OFFSET 1`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(q.String(), "DESC(?x)") {
			t.Errorf("rendered sort key is not bracketed: %s", q.String())
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("rendered query does not parse: %v\n%s", err, q.String())
		}
		if q2.String() != q.String() {
			t.Errorf("round trip not stable:\n%s\nvs\n%s", q.String(), q2.String())
		}
		if len(q2.OrderBy) != 2 || !q2.OrderBy[1].Desc {
			t.Errorf("OrderBy lost in round trip: %+v", q2.OrderBy)
		}
	}
}

func TestDollarVariable(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x <http://e/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0] != "x" {
		t.Errorf("dollar var: %v", q.Select)
	}
}

func TestCommentsSkipped(t *testing.T) {
	q, err := Parse(`
# leading comment
SELECT * WHERE { # inline
  ?x <http://e/p> ?y . # after pattern
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Elements) != 1 {
		t.Errorf("elements = %d", len(q.Where.Elements))
	}
}
