package store

// Stats holds the per-predicate statistics used by the BGP cost models of
// §5.1.2. They are computed once, when a store is built.
//
// averageSize(v, p) in the WCO-join cost formula is the average number of
// edges with predicate p incident to a single subject (forward direction)
// or object (backward direction); we precompute both directions.
type Stats struct {
	NumTriples   int
	NumEntities  int // distinct subjects ∪ IRI/blank objects
	NumPreds     int
	NumLiterals  int        // distinct literal objects
	PredCount    map[ID]int // triples per predicate
	PredSubjects map[ID]int // distinct subjects per predicate
	PredObjects  map[ID]int // distinct objects per predicate
}

// computeStats reads every statistic directly off the sorted permutation
// arrays: POS row-pointer run lengths give per-predicate counts, value
// transitions inside sorted runs give the distinct-value counts, and one
// walk over the dense ID space classifies each term as subject and/or
// object (entity or literal) from the emptiness of its SPO/OSP runs.
func computeStats(st *Store) *Stats {
	terms := st.dict.Terms()
	maxID := terms.Len()
	s := &Stats{
		NumTriples:   len(st.spo.tri),
		PredCount:    make(map[ID]int),
		PredSubjects: make(map[ID]int),
		PredObjects:  make(map[ID]int),
	}
	pos := st.pos.tri
	for p := ID(1); int(p) <= maxID; p++ {
		lo, hi := st.pos.run(p)
		if lo == hi {
			continue
		}
		s.NumPreds++
		s.PredCount[p] = hi - lo
		// A predicate's POS run is sorted by object: every object
		// transition is one distinct object. Counted per run, so a
		// predicate costs one map write, not one per object.
		objs := 1
		for i := lo + 1; i < hi; i++ {
			if pos[i].O != pos[i-1].O {
				objs++
			}
		}
		s.PredObjects[p] = objs
	}
	// SPO is sorted by (S,P,O): every (S,P) transition is one distinct
	// subject of that predicate.
	spo := st.spo.tri
	for i, t := range spo {
		if i == 0 || t.S != spo[i-1].S || t.P != spo[i-1].P {
			s.PredSubjects[t.P]++
		}
	}
	// Entities are subjects plus non-literal objects; literal objects are
	// counted separately.
	for id := ID(1); int(id) <= maxID; id++ {
		sLo, sHi := st.spo.run(id)
		oLo, oHi := st.osp.run(id)
		isSubj, isObj := sLo != sHi, oLo != oHi
		if isObj && terms.Term(id).IsLiteral() {
			s.NumLiterals++
			if isSubj {
				s.NumEntities++
			}
			continue
		}
		if isSubj || isObj {
			s.NumEntities++
		}
	}
	return s
}

// AvgOutDegree returns the average number of objects per subject for
// predicate p: count(p) / distinctSubjects(p). Returns 1 when p is unseen,
// the conservative floor the paper's cardinality estimator uses.
func (s *Stats) AvgOutDegree(p ID) float64 {
	c, subs := s.PredCount[p], s.PredSubjects[p]
	if subs == 0 {
		return 1
	}
	return float64(c) / float64(subs)
}

// AvgInDegree returns the average number of subjects per object for
// predicate p: count(p) / distinctObjects(p). Returns 1 when p is unseen.
func (s *Stats) AvgInDegree(p ID) float64 {
	c, objs := s.PredCount[p], s.PredObjects[p]
	if objs == 0 {
		return 1
	}
	return float64(c) / float64(objs)
}
