package bench

// The benchmark query catalog: the 24 queries of Appendix A (q1.1–q1.6
// and q2.1–q2.6 on LUBM and DBpedia). Query structure — operators,
// nesting, variable topology — is reproduced exactly; the only adaptation
// is that entity-constant indexes (e.g. UndergraduateStudent91) are
// remapped to constants that exist at the synthetic generators' scale,
// preserving each constant's selectivity role.

// Query is one benchmark query.
type Query struct {
	ID      string // e.g. "q1.3"
	Dataset string // "LUBM" or "DBpedia"
	Type    string // "U", "O", or "UO" — the paper's Type column
	Text    string // full SPARQL text
}

const lubmPrefixes = `
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

const dbpPrefixes = `
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX purl: <http://purl.org/dc/terms/>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
PREFIX nsprov: <http://www.w3.org/ns/prov#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX dbo: <http://dbpedia.org/ontology/>
PREFIX dbr: <http://dbpedia.org/resource/>
PREFIX dbp: <http://dbpedia.org/property/>
PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#>
PREFIX georss: <http://www.georss.org/georss/>
`

// LUBMGroup1 is q1.1–q1.6 on LUBM (§7.1).
var LUBMGroup1 = []Query{
	{"q1.1", "LUBM", "U", lubmPrefixes + `
SELECT * WHERE {
  { ?v2 ub:headOf ?v1 . } UNION { ?v2 ub:worksFor ?v1 . }
  ?v2 ub:undergraduateDegreeFrom ?v3 .
  ?v4 ub:doctoralDegreeFrom ?v3 .
  ?v5 ub:publicationAuthor ?v2 .
  { ?v6 ub:headOf ?v1 . } UNION { ?v6 ub:worksFor ?v1 . }
  { ?v2 ub:headOf ?v7 . } UNION { ?v2 ub:worksFor ?v7 . }
  <http://www.Department0.University0.edu/UndergraduateStudent31> ub:memberOf ?v1 .
  ?v7 ub:name ?v8 . }`},
	{"q1.2", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  ?v3 ub:emailAddress "UndergraduateStudent31@Department0.University0.edu" .
  ?v2 ub:emailAddress ?v1 .
  OPTIONAL { ?v2 ub:teacherOf ?v4 . ?v3 ub:takesCourse ?v4 . } }`},
	{"q1.3", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  <http://www.Department1.University0.edu/UndergraduateStudent3> ub:takesCourse ?v1 .
  OPTIONAL { ?v2 ub:teachingAssistantOf ?v1 .
    OPTIONAL { ?v2 ub:memberOf ?v3 .
      ?v4 ub:subOrganizationOf ?v3 .
      ?v4 ub:subOrganizationOf ?v5 .
      ?v4 rdf:type ?v6 .
      OPTIONAL { ?v5 ub:subOrganizationOf ?v7 . } } } }`},
	{"q1.4", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  ?v1 ub:emailAddress "UndergraduateStudent9@Department12.University0.edu" .
  OPTIONAL { ?v1 ub:memberOf ?v2 . ?v2 ub:name ?v3 .
    OPTIONAL { ?v5 ub:publicationAuthor ?v4 . ?v4 ub:worksFor ?v2 .
      OPTIONAL { ?v6 ub:publicationAuthor ?v4 . } } } }`},
	{"q1.5", "LUBM", "UO", lubmPrefixes + `
SELECT * WHERE {
  { ?v2 rdf:type ?v3 . }
  UNION
  { ?v2 ub:name ?v4 . }
  <http://www.Department0.University0.edu/UndergraduateStudent26> ub:memberOf ?v1 .
  ?v2 ub:worksFor ?v1 .
  OPTIONAL { ?v5 ub:advisor ?v2 .
    OPTIONAL { ?v5 ub:teachingAssistantOf ?v6 . } }
  OPTIONAL { ?v7 ub:advisor ?v2 . } }`},
	{"q1.6", "LUBM", "UO", lubmPrefixes + `
SELECT * WHERE {
  ?v4 ub:headOf ?v1 .
  <http://www.Department1.University0.edu/UndergraduateStudent6> ub:memberOf ?v1 .
  ?v3 ub:subOrganizationOf ?v5 .
  { ?v2 ub:worksFor ?v1 . } UNION { ?v2 ub:headOf ?v1 . }
  { ?v2 ub:worksFor ?v3 . } UNION { ?v2 ub:headOf ?v3 . }
  OPTIONAL { ?v6 ub:publicationAuthor ?v2 . }
  OPTIONAL { { ?v7 ub:headOf ?v1 . } UNION { ?v7 ub:worksFor ?v1 . } } }`},
}

// lubmGroup2 is q2.1–q2.6 on LUBM, the LBR comparison set (§7.2).
var lubmGroup2 = []Query{
	{"q2.1", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  { ?st ub:teachingAssistantOf ?course .
    OPTIONAL { ?st ub:takesCourse ?course2 . ?pub1 ub:publicationAuthor ?st . } }
  { ?prof ub:teacherOf ?course . ?st ub:advisor ?prof .
    OPTIONAL { ?prof ub:researchInterest ?resint . ?pub2 ub:publicationAuthor ?prof . } } }`},
	{"q2.2", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  { ?pub rdf:type ub:Publication . ?pub ub:publicationAuthor ?st . ?pub ub:publicationAuthor ?prof .
    OPTIONAL { ?st ub:emailAddress ?ste . ?st ub:telephone ?sttel . } }
  { ?st ub:undergraduateDegreeFrom ?univ . ?dept ub:subOrganizationOf ?univ .
    OPTIONAL { ?head ub:headOf ?dept . ?others ub:worksFor ?dept . } }
  { ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept .
    OPTIONAL { ?prof ub:doctoralDegreeFrom ?univ1 . ?prof ub:researchInterest ?resint1 . } } }`},
	{"q2.3", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  { ?pub ub:publicationAuthor ?st . ?pub ub:publicationAuthor ?prof .
    ?st rdf:type ub:GraduateStudent .
    OPTIONAL { ?st ub:undergraduateDegreeFrom ?univ1 . ?st ub:telephone ?sttel . } }
  { ?st ub:advisor ?prof .
    OPTIONAL { ?prof ub:doctoralDegreeFrom ?univ . ?prof ub:researchInterest ?resint . } }
  { ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . ?prof rdf:type ub:FullProfessor .
    OPTIONAL { ?head ub:headOf ?dept . ?others ub:worksFor ?dept . } } }`},
	{"q2.4", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  ?x ub:worksFor <http://www.Department0.University0.edu> .
  ?x rdf:type ub:FullProfessor .
  OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . } }`},
	{"q2.5", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  ?x ub:worksFor <http://www.Department0.University12.edu> .
  ?x rdf:type ub:FullProfessor .
  OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . } }`},
	{"q2.6", "LUBM", "O", lubmPrefixes + `
SELECT * WHERE {
  ?x ub:worksFor <http://www.Department0.University12.edu> .
  ?x rdf:type ub:FullProfessor .
  OPTIONAL { ?x ub:emailAddress ?y1 . ?x ub:telephone ?y2 . ?x ub:name ?y3 . } }`},
}

// dbpediaGroup1 is q1.1–q1.6 on DBpedia (§7.1).
var dbpediaGroup1 = []Query{
	{"q1.1", "DBpedia", "U", dbpPrefixes + `
SELECT * WHERE {
  { ?v3 rdfs:label ?v7 . } UNION { ?v3 foaf:name ?v7 . }
  { ?v1 purl:subject ?v3 . } UNION { ?v3 skos:subject ?v1 . }
  ?v3 rdfs:label ?v4 .
  ?v5 nsprov:wasDerivedFrom ?v2 .
  ?v1 owl:sameAs ?v6 .
  ?v1 dbo:wikiPageWikiLink dbr:Economic_system .
  ?v1 nsprov:wasDerivedFrom ?v2 . }`},
	{"q1.2", "DBpedia", "UO", dbpPrefixes + `
SELECT * WHERE {
  { ?v3 purl:subject ?v5 . OPTIONAL { ?v5 rdfs:label ?v6 . } }
  UNION
  { ?v5 skos:subject ?v3 . OPTIONAL { ?v5 foaf:name ?v6 . } }
  ?v1 dbo:wikiPageWikiLink dbr:Economic_system .
  ?v1 nsprov:wasDerivedFrom ?v2 .
  ?v3 dbo:wikiPageWikiLink ?v4 .
  ?v3 nsprov:wasDerivedFrom ?v2 . }`},
	{"q1.3", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  dbr:Air_masses foaf:isPrimaryTopicOf ?v1 .
  ?v2 foaf:isPrimaryTopicOf ?v1 .
  OPTIONAL {
    ?v2 dbo:wikiPageRedirects ?v3 . ?v4 foaf:primaryTopic ?v2 .
    OPTIONAL {
      ?v5 dbo:wikiPageWikiLink ?v3 .
      OPTIONAL { ?v6 dbo:wikiPageRedirects ?v5 .
        OPTIONAL { ?v6 dbo:wikiPageWikiLink ?v7 . } } } } }`},
	{"q1.4", "DBpedia", "UO", dbpPrefixes + `
SELECT * WHERE {
  dbr:Functional_neuroimaging purl:subject ?v1 .
  OPTIONAL {
    ?v1 owl:sameAs ?v2 . ?v1 rdf:type ?v3 . ?v4 owl:sameAs ?v2 . ?v5 skos:related ?v4 .
    OPTIONAL { ?v6 skos:related ?v4 . }
    OPTIONAL {
      { ?v7 purl:subject ?v1 . } UNION { ?v1 skos:subject ?v7 . }
      OPTIONAL {
        { ?v7 purl:subject ?v8 . } UNION { ?v8 skos:subject ?v7 . } } } } }`},
	{"q1.5", "DBpedia", "UO", dbpPrefixes + `
SELECT * WHERE {
  { ?v2 purl:subject ?v3 . } UNION { ?v2 dbo:wikiPageWikiLink ?v4 . }
  ?v1 dbo:wikiPageWikiLink dbr:Abdul_Rahim_Wardak .
  ?v2 dbo:wikiPageWikiLink ?v1 .
  OPTIONAL { ?v5 owl:sameAs ?v2 .
    OPTIONAL { ?v5 dbo:wikiPageLength ?v6 . } }
  OPTIONAL { ?v2 skos:prefLabel ?v7 . } }`},
	{"q1.6", "DBpedia", "UO", dbpPrefixes + `
SELECT * WHERE {
  { ?v2 foaf:primaryTopic ?v1 . } UNION { ?v1 foaf:isPrimaryTopicOf ?v2 . }
  { ?v2 foaf:primaryTopic ?v3 . } UNION { ?v3 foaf:isPrimaryTopicOf ?v2 . }
  ?v1 dbo:wikiPageWikiLink dbr:Category:Cell_biology .
  ?v3 dbo:wikiPageWikiLink ?v1 .
  OPTIONAL {
    { ?v2 foaf:primaryTopic ?v4 . } UNION { ?v4 foaf:isPrimaryTopicOf ?v2 . } }
  OPTIONAL { ?v5 dbo:phylum ?v3 . ?v6 dbo:phylum ?v3 .
    OPTIONAL {
      { ?v7 foaf:primaryTopic ?v5 . } UNION { ?v5 foaf:isPrimaryTopicOf ?v7 . } } } }`},
}

// dbpediaGroup2 is q2.1–q2.6 on DBpedia, the LBR comparison set (§7.2).
var dbpediaGroup2 = []Query{
	{"q2.1", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  { ?v6 a dbo:PopulatedPlace . ?v6 dbo:abstract ?v1 .
    ?v6 rdfs:label ?v2 . ?v6 geo:lat ?v3 . ?v6 geo:long ?v4 .
    OPTIONAL { ?v6 foaf:depiction ?v8 . } }
  OPTIONAL { ?v6 foaf:homepage ?v10 . }
  OPTIONAL { ?v6 dbo:populationTotal ?v12 . }
  OPTIONAL { ?v6 dbo:thumbnail ?v14 . } }`},
	{"q2.2", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  ?v3 foaf:homepage ?v0 . ?v3 a dbo:SoccerPlayer . ?v3 dbp:position ?v6 .
  ?v3 dbp:clubs ?v8 . ?v8 dbo:capacity ?v1 . ?v3 dbo:birthPlace ?v5 .
  OPTIONAL { ?v3 dbo:number ?v9 . } }`},
	{"q2.3", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  ?v5 dbo:thumbnail ?v4 . ?v5 rdf:type dbo:Person . ?v5 rdfs:label ?v .
  ?v5 foaf:homepage ?v8 .
  OPTIONAL { ?v5 foaf:homepage ?v10 . } }`},
	{"q2.4", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  { ?v2 a dbo:Settlement . ?v2 rdfs:label ?v . ?v6 a dbo:Airport .
    ?v6 dbo:city ?v2 . ?v6 dbp:iata ?v5 .
    OPTIONAL { ?v6 foaf:homepage ?v7 . } }
  OPTIONAL { ?v6 dbp:nativename ?v8 . } }`},
	{"q2.5", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  ?v4 skos:subject ?v . ?v4 foaf:name ?v6 .
  OPTIONAL { ?v4 rdfs:comment ?v8 . } }`},
	{"q2.6", "DBpedia", "O", dbpPrefixes + `
SELECT * WHERE {
  ?v0 rdfs:comment ?v1 . ?v0 foaf:page ?v .
  OPTIONAL { ?v0 skos:subject ?v6 . }
  OPTIONAL { ?v0 dbp:industry ?v5 . }
  OPTIONAL { ?v0 dbp:location ?v2 . }
  OPTIONAL { ?v0 dbp:locationCountry ?v3 . }
  OPTIONAL { ?v0 dbp:locationCity ?v9 . ?a dbp:manufacturer ?v0 . }
  OPTIONAL { ?v0 dbp:products ?v11 . ?b dbp:model ?v0 . }
  OPTIONAL { ?v0 georss:point ?v10 . }
  OPTIONAL { ?v0 rdf:type ?v7 . } }`},
}

// Group1 returns q1.1–q1.6 for the named dataset.
func Group1(dataset string) []Query {
	if dataset == "DBpedia" {
		return dbpediaGroup1
	}
	return LUBMGroup1
}

// Group2 returns q2.1–q2.6 for the named dataset.
func Group2(dataset string) []Query {
	if dataset == "DBpedia" {
		return dbpediaGroup2
	}
	return lubmGroup2
}

// AllQueries returns the full 24-query catalog.
func AllQueries() []Query {
	var out []Query
	out = append(out, LUBMGroup1...)
	out = append(out, lubmGroup2...)
	out = append(out, dbpediaGroup1...)
	out = append(out, dbpediaGroup2...)
	return out
}
