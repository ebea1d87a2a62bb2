// Package exec contains the two BGP evaluation engines the paper builds
// on: a worst-case-optimal-style vertex-extension engine modelled on
// gStore's WCO join, and a binary hash-join engine modelled on Jena. Both
// support the candidate-pruning hook of §6: per-variable candidate sets
// that restrict index scans on the fly.
package exec

import (
	"slices"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// Pos is one position of an encoded triple pattern: either a query
// variable (by index) or a ground term (by dictionary ID).
type Pos struct {
	IsVar bool
	Var   int      // variable index when IsVar
	ID    store.ID // term ID otherwise; store.None means "ground term not in dictionary"
}

// Var returns a variable position.
func Var(i int) Pos { return Pos{IsVar: true, Var: i} }

// Const returns a ground position.
func Const(id store.ID) Pos { return Pos{ID: id} }

// Pattern is a dictionary-encoded triple pattern.
type Pattern struct {
	S, P, O Pos
}

// Vars returns the distinct variable indices of the pattern.
func (p Pattern) Vars() []int {
	var out []int
	seen := map[int]bool{}
	for _, pos := range [3]Pos{p.S, p.P, p.O} {
		if pos.IsVar && !seen[pos.Var] {
			seen[pos.Var] = true
			out = append(out, pos.Var)
		}
	}
	return out
}

// Impossible reports whether the pattern contains a ground term that is
// absent from the dictionary, which means it can never match.
func (p Pattern) Impossible() bool {
	for _, pos := range [3]Pos{p.S, p.P, p.O} {
		if !pos.IsVar && pos.ID == store.None {
			return true
		}
	}
	return false
}

// BGP is a basic graph pattern: a set of coalescable patterns (Def. 5).
type BGP []Pattern

// Vars returns the distinct variable indices across the BGP.
func (b BGP) Vars() []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range b {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// width returns the smallest row width that holds every variable of the BGP.
func (b BGP) width() int {
	w := 0
	for _, v := range b.Vars() {
		w = max(w, v+1)
	}
	return w
}

// Candidates maps a variable index to the term IDs it may take, each an
// ascending list of distinct IDs: algebra.BindingsOfCapped sorts it once
// per BGP, and MatchPattern's membership checks, the predicate-only
// probes and the one-open-position intersection read it as it is. A nil
// map or a missing entry imposes no restriction; a present entry allows
// exactly its list. Candidate sets are the query-time pruning mechanism
// of §6.
type Candidates map[int][]store.ID

// inList reports whether id is in the ascending list set.
func inList(set []store.ID, id store.ID) bool {
	_, in := slices.BinarySearch(set, id)
	return in
}

// posCands is a pattern's candidate lists by position (indexed by slot),
// looked up once per MatchPattern call and read by the scan policy and
// bindEmit alike. restricted is false at a position the shape binds and
// at a variable without an entry; a restricted position with an empty
// list allows nothing.
type posCands struct {
	list       [3][]store.ID
	restricted [3]bool
}

// candsOf looks up cand's list for each variable position sh leaves
// unbound, the only ones a scan can restrict.
func candsOf(pat Pattern, sh shape, cand Candidates) posCands {
	var pc posCands
	if cand == nil {
		return pc
	}
	for i, pos := range [3]Pos{pat.S, pat.P, pat.O} {
		if pos.IsVar && sh.mask&(0b100>>i) == 0 {
			pc.list[i], pc.restricted[i] = cand[pos.Var]
		}
	}
	return pc
}

// resolve returns the concrete ID a position takes under row, or
// store.None when it is an unbound variable (every variable is, under a
// nil row).
func resolve(pos Pos, row algebra.Row) store.ID {
	if !pos.IsVar {
		return pos.ID
	}
	if row == nil {
		return store.None
	}
	return row[pos.Var]
}

// bindEmit extends row into scratch with the given (s,p,o) match of pat,
// verifying repeated-variable consistency and candidate membership, and
// calls emit with scratch on success. scratch is reused across calls;
// pc holds pat's candidate lists (nil: none). It returns false once emit
// asks enumeration to stop; rejected matches (mismatch, candidate miss)
// keep enumerating.
func bindEmit(pat Pattern, row, scratch algebra.Row, s, p, o store.ID, pc *posCands, emit func(algebra.Row) bool) bool {
	nr := scratch
	copy(nr, row)
	for i, pv := range [3]struct {
		pos Pos
		id  store.ID
	}{{pat.S, s}, {pat.P, p}, {pat.O, o}} {
		if !pv.pos.IsVar {
			continue
		}
		cur := nr[pv.pos.Var]
		if cur != store.None {
			if cur != pv.id {
				return true // repeated variable mismatch
			}
			continue
		}
		if pc != nil && pc.restricted[i] && !inList(pc.list[i], pv.id) {
			return true
		}
		nr[pv.pos.Var] = pv.id
	}
	return emit(nr)
}

// slot names one position of a triple pattern.
type slot uint8

const (
	slotS slot = iota
	slotP
	slotO
)

// at returns the pattern's position in the given slot.
func (p *Pattern) at(sl slot) Pos {
	switch sl {
	case slotS:
		return p.S
	case slotP:
		return p.P
	}
	return p.O
}

// access is the kind of index access a pattern scan performs: one per
// bound-position shape (the three shapes with one open position share
// one), plus the two candidate probes that can replace the
// predicate-only shape's range scan.
type access uint8

const (
	accAll     access = iota // nothing bound: the canonical SPO array
	accO                     // OSP run of one object
	accP                     // POS run of one predicate
	accPProbeS               // per subject candidate, its objects under the predicate
	accPProbeO               // per object candidate, its subjects under the predicate
	accS                     // SPO run of one subject
	accAdj                   // one open position: the ID view adj returns
	accPoint                 // everything bound: one membership test
)

// probe is a candidate-driven alternative to the predicate-only shape's
// range scan: when the pattern variable at position by has a candidate
// list shorter than the range, the list is enumerated (ascending)
// against the index instead. The subject probe emits in another order
// than the range, so the choice is a real one. A shape with one open
// position needs no probe: MatchPattern intersects its ID view with the
// open variable's list, walking whichever is shorter.
type probe struct {
	kind  access
	by    slot
	order []slot
}

// accessPath is one row of the access-path table: how a bound-position
// shape is served. order is the emission order over the unbound
// positions — the order of the permutation range the access reads —
// and count is the size of that range, read off the index in O(1) or a
// binary search. adj, on the three shapes with a single open position,
// fetches the range itself as a zero-copy ID view (whose length is the
// count for free).
type accessPath struct {
	kind   access
	order  []slot
	count  func(st store.Reader, s, p, o store.ID) int
	adj    func(st store.Reader, s, p, o store.ID) []store.ID
	probes []probe // in preference order
}

// accessPaths is the single place the scan policy is written down,
// indexed by shape (bit 2 = S bound, bit 1 = P bound, bit 0 = O bound).
// MatchPattern enumerates what it says, MatchOrder reports its orders,
// ExactCount and the probe decision read its counts.
var accessPaths = [8]accessPath{
	0b000: {kind: accAll, order: []slot{slotS, slotP, slotO},
		count: func(st store.Reader, _, _, _ store.ID) int { return st.NumTriples() }},
	0b001: {kind: accO, order: []slot{slotS, slotP},
		count: func(st store.Reader, _, _, o store.ID) int { return st.CountO(o) }},
	0b010: {kind: accP, order: []slot{slotO, slotS},
		count: func(st store.Reader, _, p, _ store.ID) int { return st.CountP(p) },
		probes: []probe{
			{accPProbeS, slotS, []slot{slotS, slotO}},
			{accPProbeO, slotO, []slot{slotO, slotS}},
		}},
	0b011: {kind: accAdj, order: []slot{slotS},
		count: func(st store.Reader, _, p, o store.ID) int { return st.CountPO(p, o) },
		adj:   func(st store.Reader, _, p, o store.ID) []store.ID { return st.SubjectsPO(p, o) }},
	0b100: {kind: accS, order: []slot{slotP, slotO},
		count: func(st store.Reader, s, _, _ store.ID) int { return st.CountS(s) }},
	0b101: {kind: accAdj, order: []slot{slotP},
		count: func(st store.Reader, s, _, o store.ID) int { return st.CountSO(s, o) },
		adj:   func(st store.Reader, s, _, o store.ID) []store.ID { return st.PredsSO(s, o) }},
	0b110: {kind: accAdj, order: []slot{slotO},
		count: func(st store.Reader, s, p, _ store.ID) int { return st.CountSP(s, p) },
		adj:   func(st store.Reader, s, p, _ store.ID) []store.ID { return st.ObjectsSP(s, p) }},
	0b111: {kind: accPoint,
		count: func(st store.Reader, s, p, o store.ID) int {
			if st.Contains(s, p, o) {
				return 1
			}
			return 0
		}},
}

// shape is a pattern's binding state: the ID at every bound position
// and the accessPaths index saying which positions those are.
type shape struct {
	s, p, o store.ID
	mask    uint8
}

// shapeOf resolves pat against row. A nil row binds only the ground
// positions. Callers have excluded Impossible patterns, so a position
// is bound exactly when its ID is not store.None.
func shapeOf(pat Pattern, row algebra.Row) shape {
	sh := shape{s: resolve(pat.S, row), p: resolve(pat.P, row), o: resolve(pat.O, row)}
	if sh.s != store.None {
		sh.mask |= 0b100
	}
	if sh.p != store.None {
		sh.mask |= 0b010
	}
	if sh.o != store.None {
		sh.mask |= 0b001
	}
	return sh
}

// path returns the shape's row of the access-path table.
func (sh shape) path() *accessPath { return &accessPaths[sh.mask] }

// count returns the size of the index range the shape selects.
func (sh shape) count(st store.Reader) int { return sh.path().count(st, sh.s, sh.p, sh.o) }

// scan is the scan policy's decision for one pattern under one shape.
type scan struct {
	kind  access
	order []slot     // emission order over the unbound positions
	adj   []store.ID // the range itself, on single-open-position shapes
	cands []store.ID // the candidate list a probe kind enumerates
}

// planScan is the scan policy: the shape's access path, unless the
// variable at a probe position (only the predicate-only shape has any)
// has a candidate list shorter than the range, in which case the first
// such probe replaces the scan. The range size is read only when a
// candidate list competes.
func planScan(st store.Reader, sh shape, pc *posCands) scan {
	ap := sh.path()
	sc := scan{kind: ap.kind, order: ap.order}
	if ap.adj != nil {
		sc.adj = ap.adj(st, sh.s, sh.p, sh.o)
	}
	n := -1
	for _, pr := range ap.probes {
		if !pc.restricted[pr.by] {
			continue
		}
		set := pc.list[pr.by]
		if n < 0 {
			n = sh.count(st)
		}
		if len(set) < n {
			return scan{kind: pr.kind, order: pr.order, cands: set}
		}
	}
	return sc
}

// MatchPattern enumerates all extensions of row that match pat in st,
// honoring candidate sets, and calls emit for each extended row. emit
// returns whether enumeration should continue: a false return stops the
// scan immediately, which is how LIMIT push-down terminates index scans
// early instead of materializing every match.
//
// The row passed to emit is a scratch buffer owned by MatchPattern and
// reused across emissions: consumers that retain it beyond the call must
// copy it (appending to a Bag copies into the arena already).
//
// Matches are emitted in the physical order of the permutation range the
// pattern reads; MatchOrder reports that order as a variable sequence.
// Candidates restrict a scan in one of three ways: a shape with one
// open position intersects its range with the open variable's list, the
// predicate-only shape may enumerate a list instead of its range (a
// probe), and every other match is checked by bindEmit against the
// lists looked up once per call. Both store kinds — a built store and a
// live overlay's view — are read through the store.Reader accessors,
// which return ranges in permutation order.
func MatchPattern(st store.Reader, pat Pattern, row algebra.Row, cand Candidates, emit func(algebra.Row) bool) {
	if pat.Impossible() {
		return
	}
	scratch := make(algebra.Row, len(row))
	sh := shapeOf(pat, row)
	s, p, o := sh.s, sh.p, sh.o
	pc := candsOf(pat, sh, cand)
	sc := planScan(st, sh, &pc)

	switch sc.kind {
	case accPoint:
		if st.Contains(s, p, o) {
			bindEmit(pat, row, scratch, s, p, o, &pc, emit)
		}
	case accAdj:
		// The open position is a variable, the only one bindEmit could
		// check against cand: intersect its list, if any, with the range
		// here, walking the shorter and binary-searching each ID in what
		// is left of the longer, so both emit in ascending ID order.
		open := sc.order[0]
		ids, restricted := pc.list[open], pc.restricted[open]
		walk, seek := sc.adj, ids
		if restricted && len(ids) < len(sc.adj) {
			walk, seek = ids, sc.adj
		}
		t := [3]store.ID{s, p, o}
		for _, x := range walk {
			if restricted {
				i, found := slices.BinarySearch(seek, x)
				if seek = seek[i:]; !found {
					continue
				}
			}
			t[open] = x
			if !bindEmit(pat, row, scratch, t[0], t[1], t[2], nil, emit) {
				return
			}
		}
	case accPProbeS:
		for _, ss := range sc.cands {
			for _, x := range st.ObjectsSP(ss, p) {
				if !bindEmit(pat, row, scratch, ss, p, x, &pc, emit) {
					return
				}
			}
		}
	case accPProbeO:
		for _, oo := range sc.cands {
			for _, ss := range st.SubjectsPO(p, oo) {
				if !bindEmit(pat, row, scratch, ss, p, oo, &pc, emit) {
					return
				}
			}
		}
	case accP:
		for _, t := range st.PredicateTriples(p) {
			if !bindEmit(pat, row, scratch, t.S, p, t.O, &pc, emit) {
				return
			}
		}
	case accS:
		for _, t := range st.SubjectTriples(s) {
			if !bindEmit(pat, row, scratch, s, t.P, t.O, &pc, emit) {
				return
			}
		}
	case accO:
		for _, t := range st.ObjectTriples(o) {
			if !bindEmit(pat, row, scratch, t.S, t.P, o, &pc, emit) {
				return
			}
		}
	case accAll:
		for _, t := range st.Triples() {
			if !bindEmit(pat, row, scratch, t.S, t.P, t.O, &pc, emit) {
				return
			}
		}
	}
}

// repeatedVar reports whether the same variable occurs at two positions.
func repeatedVar(p Pattern) bool {
	if p.S.IsVar && p.P.IsVar && p.S.Var == p.P.Var {
		return true
	}
	if p.S.IsVar && p.O.IsVar && p.S.Var == p.O.Var {
		return true
	}
	if p.P.IsVar && p.O.IsVar && p.P.Var == p.O.Var {
		return true
	}
	return false
}

// ExactCount returns the exact number of matches of a single pattern with
// no prior bindings (candidate sets ignored), read off the indexes.
func ExactCount(st store.Reader, pat Pattern) int {
	if pat.Impossible() {
		return 0
	}
	if repeatedVar(pat) {
		// A repeated variable (e.g. ?x p ?x) constrains matches beyond
		// what the index sizes reflect; enumerate.
		n := 0
		MatchPattern(st, pat, make(algebra.Row, BGP{pat}.width()), nil, func(algebra.Row) bool { n++; return true })
		return n
	}
	return shapeOf(pat, nil).count(st)
}

// MatchOrder reports the physical order of MatchPattern's emissions for
// one extension step, as the sequence of newly bound variable positions
// by which the emitted rows ascend lexicographically — the "interesting
// order" that falls out of the SPO/POS/OSP permutation the scan reads,
// at zero cost. bound reports whether a variable position already
// carries a binding in the seed row(s); it must be uniform across the
// rows MatchPattern will be called with (true for BGP evaluation, where
// every pattern binds all its variables in every row).
//
// The sequence is a sound claim, not a complete one: when the access
// MatchPattern picks could differ per seed row (a candidate probe with a
// different emission order, gated on a count that depends on a bound
// variable's value), nothing is claimed. An empty sequence promises
// nothing.
func MatchOrder(st store.Reader, pat Pattern, bound func(int) bool, cand Candidates) []int {
	if pat.Impossible() {
		return nil
	}
	sh := shapeOf(pat, nil)
	rowDependent := false
	for sl := slotS; sl <= slotO; sl++ {
		if pos := pat.at(sl); pos.IsVar && bound(pos.Var) {
			sh.mask |= 0b100 >> sl
			rowDependent = true
		}
	}
	order := sh.path().order
	pc := candsOf(pat, sh, cand)
	for _, pr := range sh.path().probes {
		if slices.Equal(pr.order, order) || !pc.restricted[pr.by] {
			continue // the probe, taken or not, emits in the scan's order
		}
		if rowDependent {
			return nil
		}
		order = planScan(st, sh, &pc).order
		break
	}
	// Map positions to variables. A repeated variable keeps its first
	// occurrence: the scan filtered to equal components stays ascending
	// in the shared variable.
	var out []int
	for _, sl := range order {
		if v := pat.at(sl).Var; !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
