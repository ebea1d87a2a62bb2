package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

// testStore builds a store exercising every term shape the
// format must preserve: IRIs, blank nodes, plain / language-tagged /
// typed literals, empty strings, non-ASCII, and characters that need
// N-Triples escaping.
func testStore(t testing.TB) *store.Store {
	t.Helper()
	name := rdf.NewIRI("http://ex.org/name")
	knows := rdf.NewIRI("http://ex.org/knows")
	ts := []rdf.Triple{
		{S: rdf.NewIRI("http://ex.org/alice"), P: name, O: rdf.NewLiteral("Alice")},
		{S: rdf.NewIRI("http://ex.org/alice"), P: name, O: rdf.NewLangLiteral("Алиса \"q\"", "ru")},
		{S: rdf.NewIRI("http://ex.org/alice"), P: knows, O: rdf.NewBlank("b0")},
		{S: rdf.NewBlank("b0"), P: name, O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#int")},
		{S: rdf.NewBlank("b0"), P: knows, O: rdf.NewIRI("http://ex.org/alice")},
		{S: rdf.NewIRI("http://ex.org/carol"), P: name, O: rdf.NewLiteral("")},
	}
	// A pinch of bulk so the permutations have real runs.
	rng := rand.New(rand.NewSource(7))
	subjects := []rdf.Term{rdf.NewIRI("http://ex.org/alice"), rdf.NewIRI("http://ex.org/carol"), rdf.NewBlank("b0")}
	for i := 0; i < 400; i++ {
		ts = append(ts, rdf.Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: knows,
			O: rdf.NewIRI("http://ex.org/p" + string(rune('a'+rng.Intn(26)))),
		})
	}
	st, err := store.FromRDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// image serializes st into memory.
func image(t testing.TB, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// requireEqualStores compares every queryable structure of two stores.
func requireEqualStores(t *testing.T, want, got *store.Store) {
	t.Helper()
	if got.NumTriples() != want.NumTriples() {
		t.Fatalf("NumTriples = %d, want %d", got.NumTriples(), want.NumTriples())
	}
	wl, gl := want.Layout(), got.Layout()
	for _, c := range []struct {
		name       string
		want, have any
	}{
		{"SPO.Tri", wl.SPO.Tri, gl.SPO.Tri},
		{"SPO.Off", wl.SPO.Off, gl.SPO.Off},
		{"SPO.Col", wl.SPO.Col, gl.SPO.Col},
		{"POS.Tri", wl.POS.Tri, gl.POS.Tri},
		{"POS.Off", wl.POS.Off, gl.POS.Off},
		{"POS.Col", wl.POS.Col, gl.POS.Col},
		{"OSP.Tri", wl.OSP.Tri, gl.OSP.Tri},
		{"OSP.Off", wl.OSP.Off, gl.OSP.Off},
		{"OSP.Col", wl.OSP.Col, gl.OSP.Col},
	} {
		if !reflect.DeepEqual(c.want, c.have) {
			t.Errorf("layout %s differs after round trip", c.name)
		}
	}
	if want.Dict().Len() != got.Dict().Len() {
		t.Fatalf("dict len = %d, want %d", got.Dict().Len(), want.Dict().Len())
	}
	for id := store.ID(1); int(id) <= want.Dict().Len(); id++ {
		w, g := want.Dict().Terms().Term(id), got.Dict().Terms().Term(id)
		if !w.Equal(g) {
			t.Fatalf("term %d = %v, want %v", id, g, w)
		}
		// The lazily built key index must find every term again.
		back, ok := got.Dict().Lookup(w)
		if !ok || back != id {
			t.Fatalf("Lookup(%v) = (%d, %v), want (%d, true)", w, back, ok, id)
		}
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Errorf("stats differ after round trip:\n got %+v\nwant %+v", got.Stats(), want.Stats())
	}
}

func TestRoundTrip(t *testing.T) {
	st := testStore(t)
	loaded, err := Load(image(t, st))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireEqualStores(t, st, loaded)

	// Spot-check accessors against the original store.
	for _, tr := range st.Triples() {
		if !loaded.Contains(tr.S, tr.P, tr.O) {
			t.Fatalf("loaded store missing triple %+v", tr)
		}
		if !reflect.DeepEqual(st.ObjectsSP(tr.S, tr.P), loaded.ObjectsSP(tr.S, tr.P)) {
			t.Fatalf("ObjectsSP(%d,%d) differs", tr.S, tr.P)
		}
		if !reflect.DeepEqual(st.SubjectsPO(tr.P, tr.O), loaded.SubjectsPO(tr.P, tr.O)) {
			t.Fatalf("SubjectsPO(%d,%d) differs", tr.P, tr.O)
		}
	}
}

func TestRoundTripEmptyStore(t *testing.T) {
	st, err := store.FromRDF(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(image(t, st))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumTriples() != 0 || loaded.Dict().Len() != 0 {
		t.Fatalf("empty store round-tripped to %d triples, %d terms",
			loaded.NumTriples(), loaded.Dict().Len())
	}
}

// TestWriteAtomicFailureLeavesNothing: WriteFile and WriteManifest
// share one temp+fsync+rename writer; when the content callback fails
// midway, no temp file stays behind and the target is neither created
// nor — when it already exists — touched.
func TestWriteAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	boom := errors.New("disk full")
	requireOnly := func(want ...string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("directory holds %v, want %v", got, want)
		}
	}
	for _, pattern := range []string{".snapshot-*", ".manifest-*"} {
		err := writeAtomic(target, pattern, func(w io.Writer) error {
			w.Write([]byte("half a fi"))
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("writeAtomic(%s) = %v, want the callback's error", pattern, err)
		}
		requireOnly()
	}
	// An existing target survives a failed overwrite byte for byte.
	if err := WriteManifest(target, &Manifest{Stats: testStore(t).Stats()}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(target)
	if err := writeAtomic(target, ".manifest-*", func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	requireOnly("target")
	if after, _ := os.ReadFile(target); !bytes.Equal(before, after) || len(before) == 0 {
		t.Error("failed overwrite changed the existing target")
	}
	if fi, err := os.Stat(target); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("target mode = %v, %v; want 0644", fi.Mode(), err)
	}
}

func TestOpenAndSniff(t *testing.T) {
	st := testStore(t)
	dir := t.TempDir()
	img := filepath.Join(dir, "store.img")
	if err := WriteFile(img, st); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if ok, err := Sniff(img); err != nil || !ok {
		t.Fatalf("Sniff(image) = (%v, %v), want (true, nil)", ok, err)
	}
	nt := filepath.Join(dir, "store.nt")
	if err := os.WriteFile(nt, []byte("<http://a> <http://b> <http://c> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := Sniff(nt); err != nil || ok {
		t.Fatalf("Sniff(ntriples) = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := Sniff(filepath.Join(dir, "missing")); err == nil || ok {
		t.Errorf("Sniff(missing file) = (%v, %v), want (false, error)", ok, err)
	}

	loaded, m, err := Open(img)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	requireEqualStores(t, st, loaded)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, _, err := Open(nt); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("Open(ntriples) = %v, want ErrNotSnapshot", err)
	}
}

// TestLoadRejectsCorruption flips, truncates and rewrites image bytes
// and demands a clean error for every mutation: the CRCs and structural
// checks must catch whatever the mutation hits.
func TestLoadRejectsCorruption(t *testing.T) {
	img := image(t, testStore(t))

	t.Run("truncations", func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 8, 63, 64, headerSize + tableSize - 1, len(img) / 2, len(img) - 1} {
			if _, err := Load(img[:n]); err == nil {
				t.Errorf("Load of %d-byte prefix succeeded", n)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Step through the whole image; every flip must produce an error,
		// and flips inside the magic must report ErrNotSnapshot.
		for pos := 0; pos < len(img); pos += 13 {
			mut := append([]byte(nil), img...)
			mut[pos] ^= 0x40
			_, err := Load(mut)
			if err == nil {
				t.Fatalf("Load with bit flipped at %d succeeded", pos)
			}
			if pos < len(Magic) && !errors.Is(err, ErrNotSnapshot) {
				t.Fatalf("flip in magic at %d: got %v, want ErrNotSnapshot", pos, err)
			}
		}
	})

	// Version 1 carried the POS level-2 sections; images are a cache,
	// so an old one is refused, never migrated.
	t.Run("version", func(t *testing.T) {
		for _, v := range []byte{1, 99} {
			mut := append([]byte(nil), img...)
			mut[offVersion] = v
			_, err := Load(mut)
			if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported format version %d", v)) {
				t.Fatalf("version %d: got %v, want the unsupported-version error", v, err)
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := Load(append(append([]byte(nil), img...), 0xAB)); err == nil {
			t.Error("Load with trailing byte succeeded")
		}
	})
}

// refreshCRCs recomputes every checksum of a hand-mutated image so the
// structural validators — not the CRCs — are what a test exercises.
func refreshCRCs(img []byte) {
	for i := 0; i < numSections; i++ {
		e := img[headerSize+i*sectionEntrySize:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(img[off:off+length], castagnoli))
	}
	binary.LittleEndian.PutUint32(img[offTableCRC:], crc32.Checksum(img[headerSize:headerSize+tableSize], castagnoli))
	binary.LittleEndian.PutUint32(img[offHeaderCRC:], crc32.Checksum(img[:offHeaderCRC], castagnoli))
}

// section returns the payload of one section of an image.
func section(img []byte, kind int) []byte {
	e := img[headerSize+(kind-1)*sectionEntrySize:]
	off := binary.LittleEndian.Uint64(e[8:])
	length := binary.LittleEndian.Uint64(e[16:])
	return img[off : off+length]
}

// TestLoadRejectsForgedIDs: an image whose checksums are all valid but
// whose triples reference dictionary IDs out of range (or the reserved
// ID 0) must fail at load time — those IDs would otherwise panic
// Terms.Term during result writing.
func TestLoadRejectsForgedIDs(t *testing.T) {
	for _, sec := range []int{secSPOTri, secPOSCol, secOSPCol} {
		for _, forged := range []uint32{0, 1 << 30} {
			img := image(t, testStore(t))
			binary.LittleEndian.PutUint32(section(img, sec)[8:], forged)
			refreshCRCs(img)
			_, err := Load(img)
			if err == nil {
				t.Fatalf("Load accepted image with ID %d forged into section %d", forged, sec)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("forged ID %d in section %d: got %v, want ErrCorrupt", forged, sec, err)
			}
		}
	}

	// Sanity: refreshCRCs alone must leave a loadable image.
	img := image(t, testStore(t))
	refreshCRCs(img)
	if _, err := Load(img); err != nil {
		t.Fatalf("refreshCRCs broke a valid image: %v", err)
	}
}

// TestLoadArbitraryAlignment feeds Load a deliberately misaligned
// buffer; the loader must realign internally and still round-trip.
func TestLoadArbitraryAlignment(t *testing.T) {
	img := image(t, testStore(t))
	buf := make([]byte, len(img)+1)
	copy(buf[1:], img)
	loaded, err := Load(buf[1:])
	if err != nil {
		t.Fatalf("Load(misaligned): %v", err)
	}
	if loaded.NumTriples() == 0 {
		t.Fatal("misaligned load lost triples")
	}
}
