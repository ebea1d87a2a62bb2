package dbpedia

import (
	"testing"

	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

func TestDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(500))
	b := Generate(DefaultConfig(500))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAllTriplesValid(t *testing.T) {
	for _, tr := range Generate(DefaultConfig(300)) {
		if !tr.Valid() {
			t.Fatalf("invalid triple: %v", tr)
		}
	}
}

func TestQueryConstantsExist(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(1000)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	constants := []string{
		DBR + "Economic_system",
		DBR + "Abdul_Rahim_Wardak",
		DBR + "Category:Cell_biology",
		DBR + "President_of_the_United_States",
		DBR + "Air_masses",
		DBR + "Functional_neuroimaging",
	}
	for _, iri := range constants {
		if _, ok := d.Lookup(rdf.NewIRI(iri)); !ok {
			t.Errorf("constant %s missing", iri)
		}
	}
}

func TestPredicateVocabulary(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(2000)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	preds := []string{
		RDFS + "label", RDFS + "comment",
		FOAF + "name", FOAF + "isPrimaryTopicOf", FOAF + "primaryTopic",
		FOAF + "depiction", FOAF + "homepage", FOAF + "page",
		PURL + "subject", SKOS + "subject", SKOS + "related", SKOS + "prefLabel",
		NSPROV + "wasDerivedFrom", OWL + "sameAs",
		DBO + "wikiPageWikiLink", DBO + "wikiPageRedirects", DBO + "wikiPageLength",
		DBO + "abstract", DBO + "populationTotal", DBO + "thumbnail",
		DBO + "capacity", DBO + "birthPlace", DBO + "number", DBO + "city",
		DBO + "phylum", GEO + "lat", GEO + "long", GEORSS + "point",
		DBP + "position", DBP + "clubs", DBP + "iata", DBP + "nativename",
		DBP + "industry", DBP + "location", DBP + "locationCountry",
		DBP + "locationCity", DBP + "manufacturer", DBP + "products", DBP + "model",
		RDF + "type",
	}
	for _, p := range preds {
		if _, ok := d.Lookup(rdf.NewIRI(p)); !ok {
			t.Errorf("predicate %s never generated", p)
		}
	}
}

// TestHubSelectivity: the named hub constants must be much more selective
// link targets than the average entity is.
func TestHubSelectivity(t *testing.T) {
	st, err := store.FromRDF(Generate(DefaultConfig(3000)))
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	wikiLink, _ := d.Lookup(rdf.NewIRI(DBO + "wikiPageWikiLink"))
	hub, ok := d.Lookup(rdf.NewIRI(DBR + "Economic_system"))
	if !ok {
		t.Fatal("hub missing")
	}
	hubIn := st.CountPO(wikiLink, hub)
	total := st.CountP(wikiLink)
	if hubIn == 0 {
		t.Fatal("hub has no in-links; anchored queries would be empty")
	}
	if hubIn*20 > total {
		t.Errorf("hub not selective: %d of %d links", hubIn, total)
	}
}

// TestMultiTopicPagesExist: q1.6 requires pages related to two distinct
// entities (the disambiguation-page pass).
func TestMultiTopicPagesExist(t *testing.T) {
	triples := Generate(DefaultConfig(3000))
	// Count pages with both an incoming isPrimaryTopicOf and an outgoing
	// primaryTopic involving different entities.
	topicOf := map[string]string{} // page → entity (isPrimaryTopicOf)
	primary := map[string]string{} // page → entity (primaryTopic)
	for _, tr := range triples {
		switch tr.P.Value {
		case FOAF + "isPrimaryTopicOf":
			topicOf[tr.O.Value] = tr.S.Value
		case FOAF + "primaryTopic":
			primary[tr.S.Value] = tr.O.Value
		}
	}
	multi := 0
	for page, e1 := range topicOf {
		if e2, ok := primary[page]; ok && e1 != e2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-topic pages generated; q1.6 would be empty")
	}
}

func TestScalesWithEntities(t *testing.T) {
	small := len(Generate(DefaultConfig(500)))
	large := len(Generate(DefaultConfig(2000)))
	if large <= small*2 {
		t.Errorf("expected roughly linear growth: 500→%d, 2000→%d", small, large)
	}
}

func TestMinimumSize(t *testing.T) {
	// Tiny configs are clamped so the named constants always exist.
	st, err := store.FromRDF(Generate(DefaultConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Dict().Lookup(rdf.NewIRI(DBR + "Air_masses")); !ok {
		t.Error("clamped generation must still include named constants")
	}
}
