// Package store implements the RDF storage substrate that the BE-tree
// optimizer sits on: dictionary encoding of terms to dense integer IDs,
// a columnar sorted-permutation index (flat SPO/POS/OSP arrays with
// CSR-style offset runs, built once per store) over the encoded
// triples, and the statistics / sampling-based cardinality estimation
// described in §5.1.2 of the paper.
package store

import (
	"fmt"
	"sync"

	"sparqluo/internal/rdf"
)

// ID is a dictionary-encoded term identifier. ID 0 is reserved as the
// "unbound" sentinel and never denotes a term.
type ID uint32

// None is the reserved unbound/absent ID.
const None ID = 0

// Dict maps RDF terms to dense IDs and back. IDs start at 1; 0 is reserved.
// The zero value is not usable; call NewDict or NewLoadedDict.
//
// A Dict is safe for concurrent use: Encode takes a write lock, the
// read-side accessors take a read lock. The term slice is append-only —
// an ID, once assigned, decodes to the same term forever — which is what
// lets the live-update overlay share one dictionary between a mutating
// memtable and immutable bases.
type Dict struct {
	mu       sync.RWMutex
	ids      map[string]ID
	terms    []rdf.Term // terms[i-1] is the term with ID i
	strBytes int64      // running total of term string bytes (see StringBytes)
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]ID)}
}

// NewLoadedDict returns a dictionary over a prebuilt term slice
// (terms[i-1] has ID i), as reconstructed from a snapshot image. The
// key→ID index is built lazily on the first Lookup or Encode, keeping
// snapshot open time independent of dictionary size; until then the
// dictionary only supports Decode, which is all the zero-copy load path
// needs.
func NewLoadedDict(terms []rdf.Term) *Dict {
	d := &Dict{terms: terms}
	for _, t := range terms {
		d.strBytes += termBytes(t)
	}
	return d
}

func termBytes(t rdf.Term) int64 {
	return int64(len(t.Value)) + int64(len(t.Lang)) + int64(len(t.Datatype))
}

// ensureIndexLocked materializes the key→ID map for loaded
// dictionaries. Callers must hold d.mu for writing.
func (d *Dict) ensureIndexLocked() {
	if d.ids != nil {
		return
	}
	ids := make(map[string]ID, len(d.terms))
	for i, t := range d.terms {
		ids[t.Key()] = ID(i + 1)
	}
	d.ids = ids
}

// Encode returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Encode(t rdf.Term) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIndexLocked()
	key := t.Key()
	if id, ok := d.ids[key]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	d.strBytes += termBytes(t)
	id := ID(len(d.terms))
	d.ids[key] = id
	return id
}

// EncodeTriple encodes the three terms of t with Encode.
func (d *Dict) EncodeTriple(t rdf.Triple) EncTriple {
	return EncTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// Lookup returns the ID for t without inserting, and whether it exists.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	key := t.Key()
	d.mu.RLock()
	if d.ids != nil {
		id, ok := d.ids[key]
		d.mu.RUnlock()
		return id, ok
	}
	d.mu.RUnlock()
	d.mu.Lock()
	d.ensureIndexLocked()
	id, ok := d.ids[key]
	d.mu.Unlock()
	return id, ok
}

// Decode returns the term for id. It panics on the reserved ID 0 or an
// out-of-range id, which always indicates a programming error.
func (d *Dict) Decode(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == None || int(id) > len(d.terms) {
		panic(fmt.Sprintf("store: decode of invalid ID %d (dict size %d)", id, len(d.terms)))
	}
	return d.terms[id-1]
}

// Len returns the number of distinct terms in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Terms returns the terms in ID order (Terms()[i] has ID i+1). The
// slice is a snapshot-consistent view of the dictionary's backing array
// (append-only, so a captured view never mutates); callers must not
// modify it. The snapshot writer and result cursors use it: a cursor
// takes it once and decodes every cell as Terms()[id-1], without the
// per-call read lock Decode takes.
func (d *Dict) Terms() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms
}

// StringBytes returns the total bytes of term string data (lexical
// forms, language tags, datatype IRIs) held by the dictionary. The
// total is maintained incrementally, so this is a constant-time read —
// endpoints may report it per request.
func (d *Dict) StringBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strBytes
}
