// Package store implements the RDF storage substrate that the BE-tree
// optimizer sits on: dictionary encoding of terms to dense integer IDs,
// a columnar sorted-permutation index (flat SPO/POS/OSP arrays with
// CSR-style offset runs, built once per store) over the encoded
// triples, and the statistics / sampling-based cardinality estimation
// described in §5.1.2 of the paper.
//
// The dictionary holds no pointer per term. Term bytes live in a few
// append-only byte chunks (the arena), each term has one fixed-size
// pointer-free record, and the key→ID index is an open-addressing []ID
// table hashed over the term's fields, so a dictionary is a handful of
// heap objects however many terms it holds, and the collector has
// nothing in it to mark. A record also carries one bit for the results
// writer: whether the term's strings need no JSON escaping, so a W3C
// JSON cell for such a term is its kind's constant head, the raw bytes
// and a constant tail (see Terms.Cell and JSONSafeLen). The bit is not
// in the image; it is recomputed when an image's dictionary is loaded.
// The dictionary follows the string-arena-plus-integer-ID
// dictionaries of RDF-3X (Neumann & Weikum, VLDB J. 2010) and HDT
// (Fernández et al., J. Web Semantics 2013).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"unicode/utf8"
	"unsafe"

	"sparqluo/internal/rdf"
)

// ID is a dictionary-encoded term identifier. ID 0 is reserved as the
// "unbound" sentinel and never denotes a term.
type ID uint32

// None is the reserved unbound/absent ID.
const None ID = 0

// Record kinds, as Terms.Cell reports them. They are also the tag
// bytes of the records in the arena, which are laid out as a snapshot image's dictionary section:
//
//	kind byte · uvarint len(value) · value
//	          [· uvarint len(extra) · extra]   (KindLang, KindTyped)
//
// where extra is the language tag or the datatype IRI. A chunk is a run
// of such records, so a mapped image's dictionary section is a chunk as
// it stands, and an image's section is the chunks' records copied out.
const (
	KindIRI   = 0
	KindBlank = 1
	KindPlain = 2 // plain literal
	KindLang  = 3 // language-tagged literal
	KindTyped = 4 // datatyped literal
)

// Arena chunk sizes: a dictionary's first chunk is small, each next one
// twice the last, up to maxChunk. A record larger than that gets a
// chunk of its own size, so no record straddles two chunks.
const (
	minChunk = 4 << 10
	maxChunk = 1 << 20
)

// termRec places one term in the arena. It holds no pointer, and it is
// 20 bytes: plain sits in what would otherwise be padding.
type termRec struct {
	chunk uint32 // index of the arena chunk holding the record
	off   uint32 // offset of the value within the chunk
	vlen  uint32 // value length
	xlen  uint32 // length of the language tag or datatype IRI
	kind  uint8
	plain bool // value and extra need no JSON escaping (jsonPlain)
}

// extraOff is the chunk offset of the record's language tag or datatype
// IRI: it follows the value after its uvarint length.
func (r termRec) extraOff() uint32 { return r.off + r.vlen + uvarintLen(r.xlen) }

// end is the chunk offset just past the record.
func (r termRec) end() uint32 {
	if r.kind == KindLang || r.kind == KindTyped {
		return r.extraOff() + r.xlen
	}
	return r.off + r.vlen
}

// uvarintLen is the length of n's (minimal) uvarint encoding.
func uvarintLen(n uint32) uint32 { return uint32(bits.Len32(n|1)+6) / 7 }

// fields splits a term into what identifies it: its record kind, its
// value and its language tag or datatype IRI. A language tag wins over
// a datatype, and IRIs and blank nodes have neither, which is how the
// image format has always stored such terms.
func fields(t rdf.Term) (kind uint8, extra string) {
	switch {
	case t.Kind == rdf.IRI:
		return KindIRI, ""
	case t.Kind == rdf.Blank:
		return KindBlank, ""
	case t.Lang != "":
		return KindLang, t.Lang
	case t.Datatype != "":
		return KindTyped, t.Datatype
	}
	return KindPlain, ""
}

// Dict maps RDF terms to dense IDs and back. IDs start at 1; 0 is reserved.
// The zero value is not usable; call NewDict or NewLoadedDict.
//
// A Dict is safe for concurrent use: Encode takes a write lock, the
// read-side accessors take a read lock. Arena, records and chunk list
// are append-only, and bytes once written never change — an ID, once
// assigned, decodes to the same bytes forever — which is what lets the
// live-update overlay share one dictionary between a mutating memtable
// and immutable bases, and lets Terms hand out lock-free snapshots.
type Dict struct {
	mu       sync.RWMutex
	seed     maphash.Seed
	chunks   [][]byte  // the arena; a chunk's length is its capacity and never changes
	used     int       // bytes of the last chunk holding records
	recs     []termRec // recs[i-1] places the term with ID i
	index    []ID      // open-addressing key→ID table, nil until first needed
	strBytes int64     // running total of term string bytes (see StringBytes)
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{seed: maphash.MakeSeed()}
}

// NewLoadedDict returns a dictionary over a snapshot image's dictionary
// section, which must hold numTerms records (the first has ID 1). The
// section becomes the first arena chunk as it stands: it is walked once
// to fill the record column and never copied or written, so a mapped
// section stays mapped. The key→ID index is built lazily on the first
// Lookup or Encode, keeping snapshot open time independent of it; until
// then the dictionary only decodes, which is all the zero-copy load path
// needs. A section that does not hold exactly numTerms well-formed
// records is an error, never a panic.
func NewLoadedDict(blob []byte, numTerms int) (*Dict, error) {
	// Each record is at least two bytes (kind + length), which bounds the
	// record allocation by the physical section size no matter what the
	// header claims.
	if numTerms > len(blob)/2 {
		return nil, fmt.Errorf("%d dictionary terms cannot fit in %d bytes", numTerms, len(blob))
	}
	if uint64(len(blob)) > math.MaxUint32 {
		return nil, fmt.Errorf("dictionary section of %d bytes exceeds the 4 GiB a chunk addresses", len(blob))
	}
	d := &Dict{seed: maphash.MakeSeed(), chunks: [][]byte{blob}, used: len(blob), recs: make([]termRec, 0, numTerms)}
	for pos := 0; pos < len(blob); {
		if len(d.recs) == numTerms {
			return nil, errors.New("dictionary section has bytes after the last term")
		}
		r := termRec{kind: blob[pos]}
		pos++
		if r.kind > KindTyped {
			return nil, fmt.Errorf("unknown dictionary term kind %d", r.kind)
		}
		var err error
		if r.off, r.vlen, err = readSpan(blob, &pos); err != nil {
			return nil, err
		}
		var xoff uint32
		if r.kind == KindLang || r.kind == KindTyped {
			if xoff, r.xlen, err = readSpan(blob, &pos); err != nil {
				return nil, err
			}
		}
		r.plain = jsonPlain(view(blob, r.off, r.vlen), view(blob, xoff, r.xlen))
		d.recs = append(d.recs, r)
		d.strBytes += int64(r.vlen) + int64(r.xlen)
	}
	if len(d.recs) != numTerms {
		return nil, fmt.Errorf("dictionary section holds %d terms, header says %d", len(d.recs), numTerms)
	}
	return d, nil
}

// readSpan reads one uvarint-prefixed byte string of blob at *pos,
// advancing *pos past it, and returns its offset and length. The length
// must be minimally encoded: a record's extra is found by re-encoding
// its length (termRec.extraOff).
func readSpan(blob []byte, pos *int) (off, n uint32, err error) {
	v, w := binary.Uvarint(blob[*pos:])
	if w <= 0 || v > math.MaxUint32 || uint32(w) != uvarintLen(uint32(v)) {
		return 0, 0, errors.New("bad string length varint in dictionary section")
	}
	*pos += w
	if v > uint64(len(blob)-*pos) {
		return 0, 0, fmt.Errorf("string of %d bytes overruns dictionary section", v)
	}
	off = uint32(*pos)
	*pos += int(v)
	return off, uint32(v), nil
}

// hash hashes a term's identifying fields with the dictionary's seed.
func (d *Dict) hash(kind uint8, value, extra string) uint64 {
	h := maphash.String(d.seed, value) + uint64(kind)
	if extra != "" {
		h ^= maphash.String(d.seed, extra) * 0x9e3779b97f4a7c15
	}
	return h
}

// probe finds the term in the index: the ID and slot of its entry, or
// None and the empty slot where it would go. Callers hold d.mu and have
// built the index.
func (d *Dict) probe(h uint64, kind uint8, value, extra string) (int, ID) {
	terms := Terms{chunks: d.chunks, recs: d.recs}
	mask := uint64(len(d.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := d.index[i]
		if id == None {
			return int(i), None
		}
		r := d.recs[id-1]
		if r.kind != kind || int(r.vlen) != len(value) || int(r.xlen) != len(extra) {
			continue
		}
		if v, x := terms.strings(r); v == value && x == extra {
			return int(i), id
		}
	}
}

// ensureIndexLocked builds the key→ID table at a load factor of at most
// one half, or rebuilds it twice as large when the next term would pass
// that. Callers must hold d.mu for writing.
func (d *Dict) ensureIndexLocked() {
	if d.index != nil && 2*(len(d.recs)+1) <= len(d.index) {
		return
	}
	size := 16
	for size < 2*(len(d.recs)+1) {
		size *= 2
	}
	d.index = make([]ID, size)
	terms := Terms{chunks: d.chunks, recs: d.recs}
	mask := uint64(size - 1)
	for i, r := range d.recs {
		v, x := terms.strings(r)
		slot := d.hash(r.kind, v, x) & mask
		for d.index[slot] != None {
			slot = (slot + 1) & mask
		}
		d.index[slot] = ID(i + 1)
	}
}

// Encode returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Encode(t rdf.Term) ID {
	kind, extra := fields(t)
	h := d.hash(kind, t.Value, extra)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIndexLocked()
	slot, id := d.probe(h, kind, t.Value, extra)
	if id != None {
		return id
	}
	d.appendLocked(kind, t.Value, extra)
	id = ID(len(d.recs))
	d.index[slot] = id
	return id
}

// appendLocked writes a new term's record to the arena and the record
// column. Callers must hold d.mu for writing.
func (d *Dict) appendLocked(kind uint8, value, extra string) {
	need := 1 + int(uvarintLen(uint32(len(value)))) + len(value)
	if kind == KindLang || kind == KindTyped {
		need += int(uvarintLen(uint32(len(extra)))) + len(extra)
	}
	if uint64(need) > math.MaxUint32 {
		panic(fmt.Sprintf("store: term of %d bytes exceeds the 4 GiB a record addresses", need))
	}
	if len(d.chunks) == 0 || d.used+need > len(d.chunks[len(d.chunks)-1]) {
		size := minChunk
		if len(d.chunks) > 0 {
			size = min(max(2*len(d.chunks[len(d.chunks)-1]), minChunk), maxChunk)
		}
		d.chunks = append(d.chunks, make([]byte, max(size, need)))
		d.used = 0
	}
	c := d.chunks[len(d.chunks)-1]
	b := append(c[d.used:d.used], kind)
	b = binary.AppendUvarint(b, uint64(len(value)))
	r := termRec{chunk: uint32(len(d.chunks) - 1), off: uint32(d.used + len(b)), vlen: uint32(len(value)), xlen: uint32(len(extra)), kind: kind, plain: jsonPlain(value, extra)}
	b = append(b, value...)
	if kind == KindLang || kind == KindTyped {
		b = binary.AppendUvarint(b, uint64(len(extra)))
		b = append(b, extra...)
	}
	d.used += len(b)
	d.recs = append(d.recs, r)
	d.strBytes += int64(len(value)) + int64(len(extra))
}

// EncodeTriple encodes the three terms of t with Encode.
func (d *Dict) EncodeTriple(t rdf.Triple) EncTriple {
	return EncTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// Lookup returns the ID for t without inserting, and whether it exists.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	kind, extra := fields(t)
	h := d.hash(kind, t.Value, extra)
	var id ID
	d.mu.RLock()
	built := d.index != nil
	if built {
		_, id = d.probe(h, kind, t.Value, extra)
	}
	d.mu.RUnlock()
	if !built {
		d.mu.Lock()
		d.ensureIndexLocked()
		_, id = d.probe(h, kind, t.Value, extra)
		d.mu.Unlock()
	}
	return id, id != None
}

// Len returns the number of distinct terms in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.recs)
}

// Terms returns a snapshot of the dictionary: the terms with IDs 1 to
// Len() at the time of the call. It is a value over the append-only
// arena and record column, so it never changes and reading it takes no
// lock. Every decoding goes through it: a result cursor takes it once
// and decodes every cell without a lock.
func (d *Dict) Terms() Terms {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Terms{chunks: d.chunks, recs: d.recs}
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

// IndexBytes returns the bytes the dictionary's structures take: arena
// capacity (a loaded dictionary's mapped section included), record
// column capacity and the key→ID table.
func (d *Dict) IndexBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := int64(cap(d.recs))*int64(unsafe.Sizeof(termRec{})) + int64(len(d.index))*int64(unsafe.Sizeof(None))
	for _, c := range d.chunks {
		n += int64(len(c))
	}
	return n
}

// Terms is a snapshot of a dictionary's terms (see Dict.Terms). The
// zero value holds no term.
type Terms struct {
	chunks [][]byte
	recs   []termRec
}

// Len returns the number of terms in the snapshot.
func (t Terms) Len() int { return len(t.recs) }

// Term decodes id, which must be in [1, Len()]. The term's strings view
// the arena, so decoding allocates nothing.
func (t Terms) Term(id ID) rdf.Term {
	r := t.recs[id-1]
	c := t.chunks[r.chunk]
	tm := rdf.Term{Kind: rdf.Literal, Value: view(c, r.off, r.vlen)}
	switch r.kind {
	case KindIRI:
		tm.Kind = rdf.IRI
	case KindBlank:
		tm.Kind = rdf.Blank
	case KindLang:
		tm.Lang = view(c, r.extraOff(), r.xlen)
	case KindTyped:
		tm.Datatype = view(c, r.extraOff(), r.xlen)
	}
	return tm
}

// Cell returns what the results writer needs of id, which must be in
// [1, Len()], without building an rdf.Term: its record kind, its value,
// its language tag or datatype IRI (empty for other kinds), both
// viewing the arena, and whether both strings are JSON-safe throughout
// (JSONSafeLen), so a JSON string holding them is the bytes as they
// stand. It takes a pointer so that the writer's per-cell call copies no
// slice headers.
func (t *Terms) Cell(id ID) (kind uint8, value, extra string, plain bool) {
	r := &t.recs[id-1]
	c := t.chunks[r.chunk]
	value = view(c, r.off, r.vlen)
	if r.xlen != 0 {
		extra = view(c, r.extraOff(), r.xlen)
	}
	return r.kind, value, extra, r.plain
}

// strings returns a record's value and its language tag or datatype IRI
// as strings viewing the arena.
func (t Terms) strings(r termRec) (value, extra string) {
	c := t.chunks[r.chunk]
	if r.xlen == 0 {
		return view(c, r.off, r.vlen), ""
	}
	return view(c, r.off, r.vlen), view(c, r.extraOff(), r.xlen)
}

// view returns n bytes of c at off as a string sharing c's memory.
func view(c []byte, off, n uint32) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&c[off], n)
}

// jsonSafe[c] reports whether a JSON string writer copies the ASCII
// byte c as it stands. It is encoding/json's HTML-escaping set: every
// byte but the control characters, '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	safe['"'], safe['\\'], safe['<'], safe['>'], safe['&'] = false, false, false, false, false
	return safe
}()

// JSONSafeLen returns the length of the longest prefix of s that a JSON
// string writer escaping as encoding/json does copies as it stands:
// jsonSafe bytes and valid multi-byte UTF-8, except U+2028 and U+2029.
// The results writer escapes from there, and the dictionary's plain bit
// is this scan reaching the end of a term's strings: the byte set is
// defined here once.
func JSONSafeLen(s string) int {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !jsonSafe[c] {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return i
		}
		i += size
	}
	return len(s)
}

// jsonPlain reports whether a term's value and extra need no JSON
// escaping: the record's plain bit.
func jsonPlain(value, extra string) bool {
	return JSONSafeLen(value) == len(value) && JSONSafeLen(extra) == len(extra)
}

// Records returns the snapshot as a snapshot image's dictionary
// section: its terms' records in ID order. The records of one chunk are
// contiguous from the chunk's start, so the section is one copy per
// chunk — or no copy at all when one chunk holds every record, as in a
// dictionary loaded from an image and never grown; then the result
// aliases the arena. Callers must not modify it.
func (t Terms) Records() []byte {
	var out []byte
	for i := 0; i < len(t.recs); {
		j := i
		for j+1 < len(t.recs) && t.recs[j+1].chunk == t.recs[i].chunk {
			j++
		}
		run := t.chunks[t.recs[i].chunk][:t.recs[j].end()]
		if i == 0 && j == len(t.recs)-1 {
			return run
		}
		out = append(out, run...)
		i = j + 1
	}
	return out
}
