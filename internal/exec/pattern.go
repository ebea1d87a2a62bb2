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

// accessPath is one row of the access-path table: how a bound-position
// shape is served. order is the emission order over the unbound
// positions — the order of the permutation range the access reads —
// and count is the size of that range, read off the index in O(1) or a
// binary search. A shape with one open position reads its range as a
// zero-copy ID view (view, whose length is the count for free); one
// with two or three reads it as a triple run (run); the shape with
// none is a membership test. probes lists, in preference order, the
// positions whose candidate list may be enumerated in place of the
// range (see probeBy).
type accessPath struct {
	order  []slot
	count  func(st store.Reader, s, p, o store.ID) int
	view   func(st store.Reader, s, p, o store.ID) []store.ID
	run    func(st store.Reader, s, p, o store.ID) []store.EncTriple
	probes []slot
}

// accessPaths is the single place the scan policy is written down,
// indexed by shape (bit 2 = S bound, bit 1 = P bound, bit 0 = O bound).
// MatchPattern enumerates what it says, MatchOrder reports its orders,
// ExactCount and the probe decision read its counts.
var accessPaths = [8]accessPath{
	0b000: {order: []slot{slotS, slotP, slotO},
		count: func(st store.Reader, _, _, _ store.ID) int { return st.NumTriples() },
		run:   func(st store.Reader, _, _, _ store.ID) []store.EncTriple { return st.Triples() }},
	0b001: {order: []slot{slotS, slotP},
		count: func(st store.Reader, _, _, o store.ID) int { return st.CountO(o) },
		run:   func(st store.Reader, _, _, o store.ID) []store.EncTriple { return st.ObjectTriples(o) }},
	0b010: {order: []slot{slotO, slotS},
		count:  func(st store.Reader, _, p, _ store.ID) int { return st.CountP(p) },
		run:    func(st store.Reader, _, p, _ store.ID) []store.EncTriple { return st.PredicateTriples(p) },
		probes: []slot{slotS, slotO}},
	0b011: {order: []slot{slotS},
		count: func(st store.Reader, _, p, o store.ID) int { return st.CountPO(p, o) },
		view:  func(st store.Reader, _, p, o store.ID) []store.ID { return st.SubjectsPO(p, o) }},
	0b100: {order: []slot{slotP, slotO},
		count: func(st store.Reader, s, _, _ store.ID) int { return st.CountS(s) },
		run:   func(st store.Reader, s, _, _ store.ID) []store.EncTriple { return st.SubjectTriples(s) }},
	0b101: {order: []slot{slotP},
		count: func(st store.Reader, s, _, o store.ID) int { return st.CountSO(s, o) },
		view:  func(st store.Reader, s, _, o store.ID) []store.ID { return st.PredsSO(s, o) }},
	0b110: {order: []slot{slotO},
		count: func(st store.Reader, s, p, _ store.ID) int { return st.CountSP(s, p) },
		view:  func(st store.Reader, s, p, _ store.ID) []store.ID { return st.ObjectsSP(s, p) }},
	0b111: {
		count: func(st store.Reader, s, p, o store.ID) int {
			if st.Contains(s, p, o) {
				return 1
			}
			return 0
		}},
}

// shape is a pattern's binding state: the ID at every bound position
// (indexed by slot) and the accessPaths index saying which positions
// those are.
type shape struct {
	id   [3]store.ID
	mask uint8
}

// shapeOf resolves pat against row. A nil row binds only the ground
// positions. Callers have excluded Impossible patterns, so a position
// is bound exactly when its ID is not store.None.
func shapeOf(pat Pattern, row algebra.Row) shape {
	var sh shape
	for sl, pos := range [3]Pos{pat.S, pat.P, pat.O} {
		if id := resolve(pos, row); id != store.None {
			sh = sh.bind(slot(sl), id)
		}
	}
	return sh
}

// bind returns the shape with position sl bound to id.
func (sh shape) bind(sl slot, id store.ID) shape {
	sh.id[sl] = id
	sh.mask |= 0b100 >> sl
	return sh
}

// path returns the shape's row of the access-path table.
func (sh shape) path() *accessPath { return &accessPaths[sh.mask] }

// count returns the size of the index range the shape selects.
func (sh shape) count(st store.Reader) int {
	return sh.path().count(st, sh.id[slotS], sh.id[slotP], sh.id[slotO])
}

// probeBy is the scan policy's one choice: a probe enumerates the
// candidate list of the variable at one of the shape's probe positions
// (only the predicate-only shape has any) and reads, per candidate, the
// view of the shape that binds it, in place of the shape's range. The
// first position whose list is shorter than the range is probed; the
// range size is read only when a list competes. A shape with one open
// position needs no probe: its view is intersected with the open
// variable's list, walking whichever is shorter.
func probeBy(st store.Reader, sh shape, pc *posCands) (slot, bool) {
	n := -1
	for _, by := range sh.path().probes {
		if !pc.restricted[by] {
			continue
		}
		if n < 0 {
			n = sh.count(st)
		}
		if len(pc.list[by]) < n {
			return by, true
		}
	}
	return 0, false
}

// probeOrder writes into buf the order a probe by position by emits in
// on the shape with the given mask: by's candidates ascending, then the
// view order of the shape that binds by.
func probeOrder(buf *[3]slot, mask uint8, by slot) []slot {
	return append(append(buf[:0], by), accessPaths[mask|0b100>>by].order...)
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
// open position intersects its view with the open variable's list, the
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
	pc := candsOf(pat, sh, cand)
	if by, ok := probeBy(st, sh, &pc); ok {
		for _, x := range pc.list[by] {
			if !emitView(st, pat, row, scratch, sh.bind(by, x), &pc, emit) {
				return
			}
		}
		return
	}
	ap := sh.path()
	s, p, o := sh.id[slotS], sh.id[slotP], sh.id[slotO]
	switch {
	case ap.view != nil:
		emitView(st, pat, row, scratch, sh, &pc, emit)
	case ap.run != nil:
		for _, t := range ap.run(st, s, p, o) {
			if !bindEmit(pat, row, scratch, t.S, t.P, t.O, &pc, emit) {
				return
			}
		}
	default:
		if st.Contains(s, p, o) {
			bindEmit(pat, row, scratch, s, p, o, &pc, emit)
		}
	}
}

// emitView enumerates the view of sh, a shape with one open position,
// binding each ID at that position. The open position is a variable,
// the only one bindEmit could check against its candidate list in pc:
// the list, if any, is intersected with the view here instead, walking
// the shorter and binary-searching each ID in what is left of the
// longer, so both emit in ascending ID order. It returns false once
// emit asks enumeration to stop.
func emitView(st store.Reader, pat Pattern, row, scratch algebra.Row, sh shape, pc *posCands, emit func(algebra.Row) bool) bool {
	ap := sh.path()
	t := sh.id
	view := ap.view(st, t[slotS], t[slotP], t[slotO])
	open := ap.order[0]
	ids, restricted := pc.list[open], pc.restricted[open]
	walk, seek := view, ids
	if restricted && len(ids) < len(view) {
		walk, seek = ids, view
	}
	for _, x := range walk {
		if restricted {
			i, found := slices.BinarySearch(seek, x)
			if seek = seek[i:]; !found {
				continue
			}
		}
		t[open] = x
		if !bindEmit(pat, row, scratch, t[slotS], t[slotP], t[slotO], nil, emit) {
			return false
		}
	}
	return true
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
	var buf [3]slot
	for _, by := range sh.path().probes {
		if !pc.restricted[by] || slices.Equal(probeOrder(&buf, sh.mask, by), order) {
			continue // the probe, taken or not, emits in the scan's order
		}
		if rowDependent {
			return nil
		}
		if by, ok := probeBy(st, sh, &pc); ok {
			order = probeOrder(&buf, sh.mask, by)
		}
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
