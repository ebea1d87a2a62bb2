package store

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"sparqluo/internal/rdf"
)

// TestDictFieldwiseIdentity: a term is its kind, value and language tag
// or datatype, compared field by field. A plain literal whose value
// spells out another literal's language tag or datatype after a NUL is
// a different term and gets its own ID.
func TestDictFieldwiseIdentity(t *testing.T) {
	pairs := [][2]rdf.Term{
		{rdf.NewLiteral("a\x00@en"), rdf.NewLangLiteral("a", "en")},
		{rdf.NewLiteral("a\x00^http://dt"), rdf.NewTypedLiteral("a", "http://dt")},
		{rdf.NewLangLiteral("a\x00", "en"), rdf.NewLangLiteral("a", "\x00en")},
		{rdf.NewIRI("x"), rdf.NewBlank("x")},
	}
	d := NewDict()
	for _, p := range pairs {
		a, b := d.Encode(p[0]), d.Encode(p[1])
		if a == b {
			t.Errorf("%q and %q share ID %d", p[0], p[1], a)
		}
		for i, id := range []ID{a, b} {
			if got := d.Terms().Term(id); got != p[i] {
				t.Errorf("Term(%d) = %#v, want %#v", id, got, p[i])
			}
			if got, ok := d.Lookup(p[i]); !ok || got != id {
				t.Errorf("Lookup(%#v) = (%d, %v), want (%d, true)", p[i], got, ok, id)
			}
		}
	}
}

// TestDictHeapObjects: the dictionary holds a handful of heap objects
// however many terms it holds — arena chunks, the record column, the
// index — not one or more per term, so the collector has nothing in it
// to mark.
func TestDictHeapObjects(t *testing.T) {
	const n = 100_000
	terms := make([]rdf.Term, n)
	for i := range terms {
		switch v := fmt.Sprintf("http://example.org/term/%d", i); i % 4 {
		case 0:
			terms[i] = rdf.NewIRI(v)
		case 1:
			terms[i] = rdf.NewLangLiteral(v, "en")
		case 2:
			terms[i] = rdf.NewTypedLiteral(v, "http://www.w3.org/2001/XMLSchema#string")
		default:
			terms[i] = rdf.NewBlank(v)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDict()
	for _, tm := range terms {
		d.Encode(tm)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	if grown := int64(after.HeapObjects) - int64(before.HeapObjects); grown > 300 {
		t.Errorf("encoding %d terms left %d more live heap objects, want at most 300", n, grown)
	}
	runtime.KeepAlive(terms)
}

// TestDictConcurrentGrowth: writers encode fresh terms across several
// arena-chunk and index growths while readers look up and decode the
// terms an earlier snapshot covers. Run under -race it checks the
// contract Results and the live overlay rely on: an ID, once handed
// out, decodes to the same bytes forever, and a snapshot needs no lock.
func TestDictConcurrentGrowth(t *testing.T) {
	term := func(i int) rdf.Term {
		if i%3 == 0 {
			return rdf.NewLangLiteral(fmt.Sprintf("value %d", i), "en")
		}
		return rdf.NewIRI(fmt.Sprintf("http://example.org/resource/%d", i))
	}
	const seeded, writers, perWriter = 500, 4, 5_000
	d := NewDict()
	for i := range seeded {
		d.Encode(term(i))
	}
	early := d.Terms()
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				tm := term(seeded + w*perWriter + i)
				id := d.Encode(tm)
				if got := d.Terms().Term(id); got != tm {
					t.Errorf("Term(%d) = %v, want %v", id, got, tm)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for i := range seeded {
					id, ok := d.Lookup(term(i))
					if !ok || id != ID(i+1) || early.Term(id) != term(i) {
						t.Errorf("term %d: Lookup = (%d, %v), snapshot decodes %v", i, id, ok, early.Term(ID(i+1)))
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if want := seeded + writers*perWriter; d.Len() != want {
		t.Fatalf("Len = %d, want %d", d.Len(), want)
	}
	if got := len(d.Terms().chunks); got < 3 {
		t.Errorf("the writers filled %d arena chunks; the test means to cross several chunk growths", got)
	}
}

// TestDictIndexBytes: the dictionary's own footprint covers its term
// bytes and is reported apart from StringBytes, which counts only them.
func TestDictIndexBytes(t *testing.T) {
	d := NewDict()
	for i := range 1000 {
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/%d", i)))
	}
	if d.IndexBytes() <= d.StringBytes() {
		t.Errorf("IndexBytes %d should exceed the %d term bytes it holds", d.IndexBytes(), d.StringBytes())
	}
}

// TestTermRecSize: the plain bit sits in the record's padding, so a
// term's record stays 20 bytes.
func TestTermRecSize(t *testing.T) {
	if n := unsafe.Sizeof(termRec{}); n != 20 {
		t.Errorf("termRec is %d bytes, want 20", n)
	}
}

// FuzzDictRoundTrip holds the dictionary to a map[rdf.Term]ID oracle
// over terms of every kind, empty values and NUL bytes in any field:
// Encode agrees with Lookup and the oracle, distinct terms get distinct
// IDs, Terms().Term gives the term back, a snapshot taken before growth still
// decodes every ID it covers, and the snapshot's image records load
// back into a dictionary that decodes the same terms with the same
// plain bits.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("\x02\x05a\x00@en\x00\x03\x01a\x02en"))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x01\x00\x00\x03\x00\x01\x00\x04\x00\x01\x00"))
	f.Add([]byte("\x04\x03a\x00b\x02\x00d\x00\xf4x\x00\x01\x05\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A string is a length byte and that many bytes; a length of
		// 0xf0 or more repeats the next byte in thousands, so records
		// outgrow the arena's chunks.
		str := func() string {
			n := int(next())
			if n >= 0xf0 {
				c := next()
				b := make([]byte, (n-0xef)*1000)
				for i := range b {
					b[i] = c
				}
				return string(b)
			}
			n = min(n, len(data))
			s := string(data[:n])
			data = data[n:]
			return s
		}
		d := NewDict()
		oracle := map[rdf.Term]ID{}
		var byID []rdf.Term
		var early Terms
		for i := 0; len(data) > 0; i++ {
			var tm rdf.Term
			switch kind, v := next()%5, str(); kind {
			case 0:
				tm = rdf.NewIRI(v)
			case 1:
				tm = rdf.NewBlank(v)
			case 2:
				tm = rdf.NewLiteral(v)
			case 3:
				tm = rdf.NewLangLiteral(v, str())
			default:
				tm = rdf.NewTypedLiteral(v, str())
			}
			id := d.Encode(tm)
			if want, ok := oracle[tm]; ok && id != want {
				t.Fatalf("re-encoding %#v gave ID %d, first %d", tm, id, want)
			} else if !ok {
				if int(id) != len(byID)+1 {
					t.Fatalf("new term %#v got ID %d, want fresh ID %d", tm, id, len(byID)+1)
				}
				oracle[tm] = id
				byID = append(byID, tm)
			}
			if got, ok := d.Lookup(tm); !ok || got != id {
				t.Fatalf("Lookup(%#v) = (%d, %v), Encode gave %d", tm, got, ok, id)
			}
			if got := d.Terms().Term(id); got != tm {
				t.Fatalf("Term(%d) = %#v, want %#v", id, got, tm)
			}
			if i == 2 {
				early = d.Terms()
			}
		}
		for i := range early.Len() {
			if got := early.Term(ID(i + 1)); got != byID[i] {
				t.Fatalf("early snapshot decodes %d as %#v, want %#v", i+1, got, byID[i])
			}
		}
		loaded, err := NewLoadedDict(d.Terms().Records(), len(byID))
		if err != nil {
			t.Fatalf("records of %d terms do not load: %v", len(byID), err)
		}
		for i, tm := range byID {
			if got := loaded.Terms().Term(ID(i + 1)); got != tm {
				t.Fatalf("loaded dictionary decodes %d as %#v, want %#v", i+1, got, tm)
			}
			encoded, reloaded := d.Terms(), loaded.Terms()
			_, _, _, want := encoded.Cell(ID(i + 1))
			if _, _, _, got := reloaded.Cell(ID(i + 1)); got != want {
				t.Fatalf("loaded dictionary's plain bit of %#v is %v, Encode set %v", tm, got, want)
			}
			if got, ok := loaded.Lookup(tm); !ok || got != ID(i+1) {
				t.Fatalf("loaded Lookup(%#v) = (%d, %v), want %d", tm, got, ok, i+1)
			}
		}
	})
}
