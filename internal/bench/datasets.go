// Package bench is what the paper's experiments (§7) run on, shared by
// the Go benchmarks that regenerate its tables and figures, the tests
// that check all strategies and stores against each other, and the
// repository benchmark: the query catalog of Appendix A, adapted to the
// synthetic generators' scale, and the generated datasets, built once
// per scale.
package bench

import (
	"sync"

	"sparqluo/internal/dbpedia"
	"sparqluo/internal/lubm"
	"sparqluo/internal/store"
)

// Default experiment scales: laptop-sized stand-ins for the paper's
// 0.5–2B-triple datasets.
const (
	// defaultLUBMUniversities is the LUBM scale factor used by Tables
	// 3/4 and Figures 10/11/13. 13 universities guarantee that
	// University12 (referenced by q2.5/q2.6) exists.
	defaultLUBMUniversities = 13
	// defaultDBpediaEntities is the article count of the DBpedia-like
	// dataset.
	defaultDBpediaEntities = 12000
)

var (
	cacheMu   sync.Mutex
	lubmCache = map[int]*store.Store{}
	dbpCache  = map[int]*store.Store{}
)

// LUBMStore returns a frozen store over a generated LUBM dataset with the
// given number of universities, cached per scale.
func LUBMStore(universities int) *store.Store {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if st, ok := lubmCache[universities]; ok {
		return st
	}
	st, err := store.FromRDF(lubm.Generate(lubm.DefaultConfig(universities)))
	if err != nil {
		panic(err)
	}
	lubmCache[universities] = st
	return st
}

// dbpediaStore returns a frozen store over a generated DBpedia-like
// dataset with the given number of entities, cached per scale.
func dbpediaStore(entities int) *store.Store {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if st, ok := dbpCache[entities]; ok {
		return st
	}
	st, err := store.FromRDF(dbpedia.Generate(dbpedia.DefaultConfig(entities)))
	if err != nil {
		panic(err)
	}
	dbpCache[entities] = st
	return st
}

// StoreFor returns the default experiment store for a dataset name.
func StoreFor(dataset string) *store.Store {
	if dataset == "DBpedia" {
		return dbpediaStore(defaultDBpediaEntities)
	}
	return LUBMStore(defaultLUBMUniversities)
}
