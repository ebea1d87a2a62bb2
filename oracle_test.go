package sparqluo_test

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
)

// The oracle is the SPARQL-UO semantics written once, plainly: the bag
// semantics of Pérez, Arenas & Gutierrez ("Semantics and Complexity of
// SPARQL", TODS 2009) under the paper's precedence {} ≺ UNION ≺ AND ≺
// OPTIONAL. A group's required children — triple patterns, groups,
// UNIONs (their branches' bags concatenated) — are joined, then its
// OPTIONALs left-joined in order, which for patterns that are not well
// designed differs from the W3C left-to-right fold and is what the
// BE-tree evaluates. A triple pattern is a full scan; joins bucket on
// the variables every row of both sides binds, and nothing smarter.
type oracle struct {
	data  [][3]int32 // the triples, each once, their terms numbered from 1
	ids   map[rdf.Term]int32
	terms []rdf.Term
	order func(a, b rdf.Term) int
	// Of the query being answered: a row holds term numbers (0: unbound)
	// at a position per variable mention of the query.
	slot  map[string]int
	names []string // the variables, by position
	width int
}

// newOracle returns the oracle over data; order orders terms for ORDER
// BY — the engine's own term order, which SPARQL leaves open.
func newOracle(data []rdf.Triple, order func(a, b rdf.Term) int) *oracle {
	o := &oracle{ids: map[rdf.Term]int32{}, order: order}
	seen := map[rdf.Triple]bool{}
	for _, t := range data { // a graph is a set
		if !seen[t] {
			seen[t] = true
			o.data = append(o.data, [3]int32{o.id(t.S), o.id(t.P), o.id(t.O)})
		}
	}
	return o
}

func (o *oracle) id(t rdf.Term) int32 {
	if _, ok := o.ids[t]; !ok {
		o.terms = append(o.terms, t)
		o.ids[t] = int32(len(o.terms))
	}
	return o.ids[t]
}

func (o *oracle) intern(v string) int {
	if _, ok := o.slot[v]; !ok {
		o.slot[v] = len(o.names)
		o.names = append(o.names, v)
	}
	return o.slot[v]
}

// solutions is an answer: its variables and its rows aligned with them,
// the zero rdf.Term standing for unbound.
type solutions struct {
	vars []string
	rows [][]rdf.Term
}

// answer answers q but for its OFFSET/LIMIT: its pattern's solutions,
// stably sorted by ORDER BY (unbound first), projected, and DISTINCT.
func (o *oracle) answer(q *sparql.Query) solutions {
	o.slot, o.names, o.width = map[string]int{}, nil, strings.Count(q.String(), "?")
	rows := o.group(q.Where)
	slices.SortStableFunc(rows, func(a, b []int32) int {
		for _, k := range q.OrderBy {
			x, y := a[o.intern(k.Var)], b[o.intern(k.Var)]
			c := cmp.Compare(x, y) // unbound, 0, first
			if x != 0 && y != 0 && x != y {
				c = o.order(o.terms[x-1], o.terms[y-1])
			}
			if c != 0 && k.Desc {
				return -c
			} else if c != 0 {
				return c
			}
		}
		return 0
	})
	all := solutions{vars: q.Select}
	if len(all.vars) == 0 {
		all.vars = o.names
	}
	for _, r := range rows {
		p := make([]rdf.Term, len(all.vars))
		for i, v := range all.vars {
			if id := r[o.intern(v)]; id != 0 {
				p[i] = o.terms[id-1]
			}
		}
		all.rows = append(all.rows, p)
	}
	out, seen := solutions{vars: all.vars}, map[string]bool{}
	for i, k := range all.keys(all.vars) {
		if !q.Distinct || !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, all.rows[i])
		}
	}
	return out
}

func (o *oracle) group(g *sparql.Group) [][]int32 {
	r := [][]int32{make([]int32, o.width)} // the one empty mapping
	var optionals []*sparql.Group
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			r = o.join(r, o.scan(el), false)
		case *sparql.Group:
			r = o.join(r, o.group(el), false)
		case *sparql.Union:
			var u [][]int32
			for _, b := range el.Branches {
				u = append(u, o.group(b)...)
			}
			r = o.join(r, u, false)
		case *sparql.Optional:
			optionals = append(optionals, el.Group)
		}
	}
	for _, opt := range optionals {
		r = o.join(r, o.group(opt), true)
	}
	return r
}

// scan returns the mappings under which tp is a triple of the data.
func (o *oracle) scan(tp sparql.TriplePattern) [][]int32 {
	var slot, term [3]int // a position's variable slot, or -1 and its term
	for i, pos := range [3]sparql.TermOrVar{tp.S, tp.P, tp.O} {
		if slot[i] = -1; pos.IsVar {
			slot[i] = o.intern(pos.Var)
		} else {
			term[i] = int(o.ids[pos.Term]) // 0, matching nothing, if absent
		}
	}
	var out [][]int32
	row := make([]int32, o.width)
next:
	for _, t := range o.data {
		clear(row)
		for i, s := range slot {
			switch {
			case s < 0 && int(t[i]) != term[i], s >= 0 && row[s] != 0 && row[s] != t[i]:
				continue next
			case s >= 0:
				row[s] = t[i]
			}
		}
		out = append(out, slices.Clone(row))
	}
	return out
}

// join returns every union of a compatible pair from l × r — and, as a
// left join, every row of l compatible with no row of r.
func (o *oracle) join(l, r [][]int32, left bool) [][]int32 {
	unbound := func(i int) func([]int32) bool { return func(row []int32) bool { return row[i] == 0 } }
	var key []int // positions bound in every row of both sides
	for i := range o.width {
		if !slices.ContainsFunc(l, unbound(i)) && !slices.ContainsFunc(r, unbound(i)) {
			key = append(key, i)
		}
	}
	var buf []byte
	bucket := func(row []int32) []byte {
		buf = buf[:0]
		for _, i := range key {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(row[i]))
		}
		return buf
	}
	buckets := map[string][][]int32{}
	for _, b := range r {
		buckets[string(bucket(b))] = append(buckets[string(bucket(b))], b)
	}
	var out [][]int32
	for _, a := range l {
		matched := false
	next:
		for _, b := range buckets[string(bucket(a))] {
			for i, id := range b {
				if id != 0 && a[i] != 0 && a[i] != id {
					continue next
				}
			}
			m := slices.Clone(a)
			for i, id := range b {
				m[i] = max(m[i], id) // compatible: equal, or one of them 0
			}
			out, matched = append(out, m), true
		}
		if left && !matched {
			out = append(out, a)
		}
	}
	return out
}

// keys returns each row's terms of vars as one string; absent is unbound.
func (s solutions) keys(vars []string) []string {
	keys := make([]string, len(s.rows))
	for r, row := range s.rows {
		var b strings.Builder
		for _, v := range vars {
			if i := slices.Index(s.vars, v); i >= 0 && row[i] != (rdf.Term{}) {
				b.WriteString(row[i].String())
			}
			b.WriteString(" ")
		}
		keys[r] = b.String()
	}
	return keys
}

var termKinds = map[string]rdf.TermKind{"uri": rdf.IRI, "bnode": rdf.Blank, "literal": rdf.Literal}

// decodeResults reads a W3C SPARQL JSON results document.
func decodeResults(doc []byte) (solutions, error) {
	var r struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]map[string]string
		}
	}
	err := json.Unmarshal(doc, &r)
	s := solutions{vars: r.Head.Vars}
	for _, b := range r.Results.Bindings {
		row := make([]rdf.Term, len(s.vars))
		for name, t := range b {
			row[slices.Index(s.vars, name)] = rdf.Term{Kind: termKinds[t["type"]], Value: t["value"], Lang: t["xml:lang"], Datatype: t["datatype"]}
		}
		s.rows = append(s.rows, row)
	}
	return s, err
}

// agree reports how got, an engine's answer to q under an execution
// window (limit < 0 for none), departs from want, the oracle's answer.
// got must have the size of want's window — the text's OFFSET/LIMIT,
// then the execution's — and be a sub-multiset of want, all of it when
// nothing was cut. Under ORDER BY with every key projected, got must
// carry the window's sequence of sort keys; rows within a tie may be any
// of want's with that key, the order among them being the engine's.
func agree(got, want solutions, q *sparql.Query, limit, offset int) error {
	lo, hi := min(q.Offset, len(want.rows)), len(want.rows)
	if q.Limit >= 0 {
		hi = min(hi, lo+q.Limit)
	}
	if lo = min(lo+offset, hi); limit >= 0 {
		hi = min(hi, lo+limit)
	}
	if len(got.rows) != hi-lo {
		return fmt.Errorf("%d rows, want %d", len(got.rows), hi-lo)
	}
	var sortVars []string
	for _, k := range q.OrderBy {
		if sortVars = append(sortVars, k.Var); len(q.Select) > 0 && !slices.Contains(q.Select, k.Var) {
			sortVars = nil // rows with equal projections may come in any order
			break
		}
	}
	wantKeys := want.keys(sortVars)
	for i, k := range got.keys(sortVars) {
		if k != wantKeys[lo+i] {
			return fmt.Errorf("row %d sorts as %q, want %q", i, k, wantKeys[lo+i])
		}
	}
	vars := slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(got.vars), want.vars...))))
	pool := map[string]int{}
	for _, k := range want.keys(vars) {
		pool[k]++
	}
	for i, k := range got.keys(vars) {
		if pool[k]--; pool[k] < 0 {
			return fmt.Errorf("row %d (%s) is not in the oracle's answer, or too often", i, k)
		}
	}
	return nil
}
