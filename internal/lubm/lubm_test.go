package lubm

import (
	"testing"

	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

func TestDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(2))
	b := Generate(DefaultConfig(2))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestScalesWithUniversities(t *testing.T) {
	small := len(Generate(DefaultConfig(2)))
	large := len(Generate(DefaultConfig(6)))
	if large <= small*2 {
		t.Errorf("expected roughly linear growth: 2→%d, 6→%d", small, large)
	}
}

func TestAllTriplesValid(t *testing.T) {
	for _, tr := range Generate(DefaultConfig(2)) {
		if !tr.Valid() {
			t.Fatalf("invalid triple: %v", tr)
		}
	}
}

func TestQueryConstantsExist(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(13)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	// IRIs referenced by the benchmark query catalog.
	constants := []string{
		"http://www.Department0.University0.edu/UndergraduateStudent31",
		"http://www.Department1.University0.edu/UndergraduateStudent3",
		"http://www.Department0.University0.edu/UndergraduateStudent26",
		"http://www.Department1.University0.edu/UndergraduateStudent6",
		"http://www.Department0.University0.edu",
		"http://www.Department0.University12.edu",
		"http://www.Department12.University0.edu", // q1.4's email references dept 12
	}
	for _, iri := range constants {
		if _, ok := d.Lookup(rdf.NewIRI(iri)); !ok {
			t.Errorf("constant %s missing from LUBM(13)", iri)
		}
	}
	// Literal constants.
	literals := []string{
		"UndergraduateStudent31@Department0.University0.edu",
		"UndergraduateStudent9@Department12.University0.edu",
	}
	for _, lit := range literals {
		if _, ok := d.Lookup(rdf.NewLiteral(lit)); !ok {
			t.Errorf("literal %q missing from LUBM(13)", lit)
		}
	}
}

func TestUniversity0HasThirteenDepartments(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	if _, ok := d.Lookup(rdf.NewIRI("http://www.Department12.University0.edu")); !ok {
		t.Error("University0 must always have at least 13 departments")
	}
}

func TestPredicateVocabulary(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	preds := []string{
		"headOf", "worksFor", "undergraduateDegreeFrom", "doctoralDegreeFrom",
		"mastersDegreeFrom", "publicationAuthor", "memberOf", "name",
		"emailAddress", "telephone", "teacherOf", "takesCourse",
		"teachingAssistantOf", "subOrganizationOf", "advisor", "researchInterest",
	}
	for _, p := range preds {
		if _, ok := d.Lookup(rdf.NewIRI(UB + p)); !ok {
			t.Errorf("predicate ub:%s never generated", p)
		}
	}
	if _, ok := d.Lookup(rdf.NewIRI(RDF + "type")); !ok {
		t.Error("rdf:type never generated")
	}
	classes := []string{
		"FullProfessor", "AssociateProfessor", "AssistantProfessor", "Lecturer",
		"UndergraduateStudent", "GraduateStudent", "Course", "GraduateCourse",
		"Department", "University", "Publication", "ResearchGroup",
	}
	for _, c := range classes {
		if _, ok := d.Lookup(rdf.NewIRI(UB + c)); !ok {
			t.Errorf("class ub:%s never generated", c)
		}
	}
}

// TestSelectivityContrast guards the property the experiments rely on:
// a department-anchored pattern is far more selective than emailAddress.
func TestSelectivityContrast(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(5)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	email, _ := d.Lookup(rdf.NewIRI(UB + "emailAddress"))
	memberOf, _ := d.Lookup(rdf.NewIRI(UB + "memberOf"))
	dept0, _ := d.Lookup(rdf.NewIRI("http://www.Department0.University0.edu"))
	all := st.CountP(email)
	anchored := st.CountPO(memberOf, dept0)
	if anchored*10 > all {
		t.Errorf("selectivity contrast too weak: anchored=%d, emailAddress=%d", anchored, all)
	}
}
