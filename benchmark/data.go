package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"sparqluo"
	"sparqluo/internal/bench"
	"sparqluo/internal/dbpedia"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
)

// scale fixes the dataset sizes of a run. The driver always runs
// fullScale; the go test smoke uses smokeScale so it stays fast.
type scale struct {
	name          string
	lubmUnivs     int
	dbpEntities   int
	kernelRows    int // rows per operand of the algebra/rdf micro-kernels
	setupRepeats  int // set-ups per run; setup_s is their median
	compactThresh int // live_ingest_read compaction trigger (pending ops)
}

var (
	fullScale  = scale{"full", 100, 30000, 100000, 3, 5000}
	smokeScale = scale{"smoke", 5, 1500, 5000, 1, 4000}
)

func genLUBM(univs int, seed int64) []rdf.Triple {
	cfg := lubm.DefaultConfig(univs)
	cfg.Seed = seed
	return lubm.Generate(cfg)
}

func genDBpedia(entities int, seed int64) []rdf.Triple {
	cfg := dbpedia.DefaultConfig(entities)
	cfg.Seed = seed
	return dbpedia.Generate(cfg)
}

// dept is one generated LUBM department. Departments differ in number
// per university by seed, so query constants are drawn from the
// departments that actually exist.
type dept struct{ d, u int }

func (p dept) iri() string {
	return fmt.Sprintf("http://www.Department%d.University%d.edu", p.d, p.u)
}

// lubmDepts lists the departments of a generated LUBM dataset in
// generation order (university-major).
func lubmDepts(ts []rdf.Triple) []dept {
	var out []dept
	for _, t := range ts {
		if t.O.Value != lubm.UB+"Department" || t.P.Value != lubm.RDF+"type" {
			continue
		}
		var p dept
		if _, err := fmt.Sscanf(t.S.Value, "http://www.Department%d.University%d.edu", &p.d, &p.u); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// univOf returns the university index a LUBM triple belongs to (every
// generated subject IRI names its university), or -1.
func univOf(t rdf.Triple) int {
	s := t.S.Value
	i := strings.Index(s, "University")
	if i < 0 {
		return -1
	}
	u := -1
	fmt.Sscanf(s[i:], "University%d", &u)
	return u
}

// lubmConst is one seed-chosen constant: an undergraduate student of an
// existing department. It fills whichever slot a template has (student
// IRI, e-mail literal or department IRI), so one draw serves every
// template.
type lubmConst struct {
	dept    dept
	student int
}

func pickConsts(rng *rand.Rand, depts []dept, n int) []lubmConst {
	students := lubm.DefaultConfig(1).UndergradStudents
	seen := map[lubmConst]bool{}
	var out []lubmConst
	for len(out) < n {
		c := lubmConst{depts[rng.Intn(len(depts))], rng.Intn(students)}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// lubmSlots names, per paper template, the one constant the benchmark
// substitutes (bench.LUBMGroup1/2 carry the paper's fixed constants).
var lubmSlots = map[string]struct {
	orig string
	fill func(c lubmConst) string
}{
	"q1.1": {"<http://www.Department0.University0.edu/UndergraduateStudent31>", studentIRI},
	"q1.2": {`"UndergraduateStudent31@Department0.University0.edu"`, email},
	"q1.3": {"<http://www.Department1.University0.edu/UndergraduateStudent3>", studentIRI},
	"q1.4": {`"UndergraduateStudent9@Department12.University0.edu"`, email},
	"q1.5": {"<http://www.Department0.University0.edu/UndergraduateStudent26>", studentIRI},
	"q1.6": {"<http://www.Department1.University0.edu/UndergraduateStudent6>", studentIRI},
	"q2.4": {"<http://www.Department0.University0.edu>", deptIRI},
	"q2.5": {"<http://www.Department0.University12.edu>", deptIRI},
	"q2.6": {"<http://www.Department0.University12.edu>", deptIRI},
}

func studentIRI(c lubmConst) string {
	return fmt.Sprintf("<%s/UndergraduateStudent%d>", c.dept.iri(), c.student)
}

func email(c lubmConst) string {
	return fmt.Sprintf(`"UndergraduateStudent%d@Department%d.University%d.edu"`, c.student, c.dept.d, c.dept.u)
}

func deptIRI(c lubmConst) string { return "<" + c.dept.iri() + ">" }

// dbpSlots rotates the DBpedia templates' anchor entity among entities
// the generator treats alike (the four hubs; the special subjects).
var dbpSlots = map[string]struct {
	orig string
	pool []string
}{
	"q1.1": {"dbr:Economic_system", dbpHubs},
	"q1.2": {"dbr:Economic_system", dbpHubs},
	"q1.3": {"dbr:Air_masses", dbpSubjects},
	"q1.4": {"dbr:Functional_neuroimaging", dbpSubjects},
	"q1.5": {"dbr:Abdul_Rahim_Wardak", dbpHubs},
	"q1.6": {"dbr:Category:Cell_biology", dbpHubs},
}

var (
	dbpHubs     = []string{"Economic_system", "Abdul_Rahim_Wardak", "Category:Cell_biology", "President_of_the_United_States"}
	dbpSubjects = []string{"Air_masses", "Functional_neuroimaging", "Bill_Clinton"}
)

func catalog(dataset, id string) bench.Query {
	for _, q := range bench.AllQueries() {
		if q.Dataset == dataset && q.ID == id {
			return q
		}
	}
	panic("benchmark: no catalog query " + dataset + " " + id)
}

func substitute(text, orig, repl string) string {
	if strings.Count(text, orig) != 1 {
		panic(fmt.Sprintf("benchmark: template no longer holds exactly one %s", orig))
	}
	return strings.Replace(text, orig, repl, 1)
}

// expect is what the first, untimed execution of a text produced.
type expect struct {
	sum  digest
	rows int
	set  bool
}

// query is one concrete query text with its expected output per engine.
type query struct {
	tmpl string // e.g. "lubm/q1.4"
	id   string // tmpl + "#" + variant
	text string
	path string // request path for the HTTP workloads
	want [2]expect
}

func newQuery(tmpl string, variant int, text string) *query {
	return &query{
		tmpl: tmpl,
		id:   fmt.Sprintf("%s#%d", tmpl, variant),
		text: text,
		path: "/sparql?query=" + url.QueryEscape(text),
	}
}

// lubmQuery instantiates a LUBM template with constant c; templates
// without a slot are returned unchanged.
func lubmQuery(id string, variant int, c lubmConst) *query {
	q := catalog("LUBM", id)
	text := q.Text
	if s, ok := lubmSlots[id]; ok {
		text = substitute(text, s.orig, s.fill(c))
	}
	return newQuery("lubm/"+id, variant, text)
}

func dbpQuery(id string, variant int) *query {
	q := catalog("DBpedia", id)
	text := q.Text
	if s, ok := dbpSlots[id]; ok {
		at := 0
		for i, name := range s.pool {
			if "dbr:"+name == s.orig {
				at = i
			}
		}
		name := s.pool[(at+variant)%len(s.pool)]
		text = substitute(text, s.orig, "<"+dbpedia.DBR+name+">")
	}
	return newQuery("dbpedia/"+id, variant, text)
}

// hotTemplates are the six selective paper templates with their share
// of the hot mix, in percent. Per-operation cost is a property of the
// template, not of the constant (three answer in tens of microseconds
// from a cached plan, q1.6 returns ~400 rows), so the shares are fixed
// and put the median inside the cheap cluster and the 95th percentile
// inside the q1.6 cluster; percentiles at a boundary between clusters
// would jump from run to run. The seed chooses only the constants.
var hotTemplates = []struct {
	id    string
	share int
}{{"q2.4", 20}, {"q2.5", 20}, {"q2.6", 20}, {"q1.4", 15}, {"q1.5", 15}, {"q1.6", 10}}

// hotPool instantiates every hot template with every constant,
// constant-major: text (constant v, template t) is at v*len(hotTemplates)+t.
func hotPool(consts []lubmConst) []*query {
	var out []*query
	for v, c := range consts {
		for _, t := range hotTemplates {
			out = append(out, lubmQuery(t.id, v, c))
		}
	}
	return out
}

// op is one scheduled execution: a query on an engine.
type op struct {
	q   *query
	eng sparqluo.Engine
}

// hotPicker draws texts of a hotPool: the template by its fixed share,
// the constant either with Zipf(1.1) popularity over a seeded
// permutation (which constants are popular depends on the seed) or
// uniformly.
type hotPicker struct {
	rng      *rand.Rand
	constant func() int
}

func newHotPicker(rng *rand.Rand, consts int, zipf bool) *hotPicker {
	p := &hotPicker{rng: rng, constant: func() int { return rng.Intn(consts) }}
	if zipf {
		z, perm := rand.NewZipf(rng, 1.1, 1, uint64(consts-1)), rng.Perm(consts)
		p.constant = func() int { return perm[z.Uint64()] }
	}
	return p
}

func (p *hotPicker) next() int {
	r, t := p.rng.Intn(100), 0
	for r >= hotTemplates[t].share {
		r -= hotTemplates[t].share
		t++
	}
	return p.constant()*len(hotTemplates) + t
}

// buildDB loads triples into a fresh database and freezes it, returning
// the load (AddAll) and Freeze durations separately.
func buildDB(ts []rdf.Triple) (db *sparqluo.DB, load, freeze float64, err error) {
	db = sparqluo.Open()
	t0 := time.Now()
	if err = db.AddAll(ts); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	if err = db.Freeze(); err != nil {
		return nil, 0, 0, err
	}
	return db, t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), nil
}
