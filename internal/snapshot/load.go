package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"sparqluo/internal/store"
)

// ErrNotSnapshot reports that a file does not begin with the snapshot
// magic (it is probably N-Triples text or something else entirely).
var ErrNotSnapshot = errors.New("snapshot: not a snapshot image")

// ErrCorrupt reports that a file carries the snapshot magic but fails
// structural validation or checksum verification. Every integrity
// failure the loader detects wraps this error.
var ErrCorrupt = errors.New("snapshot: corrupt image")

// corruptf builds an error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Mapping owns the memory backing a loaded store — a memory-mapped
// region on unix, a plain heap buffer elsewhere. Close releases it.
// The store returned alongside a Mapping (and any term or slice views
// obtained from that store) must not be used after Close.
type Mapping struct {
	data  []byte
	unmap func([]byte) error
}

// Close releases the mapping. It is idempotent and nil-safe.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if m.unmap == nil {
		return nil
	}
	return m.unmap(data)
}

// Open memory-maps the snapshot image at path (falling back to reading
// it into memory on platforms without mmap) and reconstructs a frozen
// store over zero-copy views of the mapped bytes. The returned Mapping
// must be kept alive — and eventually Closed — for as long as the store
// is in use.
func Open(path string) (*store.Store, *Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size < headerSize {
		return nil, nil, ErrNotSnapshot
	}
	if size > math.MaxInt-sectionAlign {
		return nil, nil, corruptf("file size %d exceeds addressable memory", size)
	}
	data, unmap, err := mapFile(f, size)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: mapping %s: %w", path, err)
	}
	st, err := Load(data)
	if err != nil {
		unmap(data)
		return nil, nil, err
	}
	return st, &Mapping{data: data, unmap: unmap}, nil
}

// Sniff reports whether the file at path begins with the snapshot
// magic. A file too short to carry the magic is simply not a snapshot,
// not an error.
func Sniff(path string) (bool, error) { return sniffMagic(path, Magic) }

// sniffMagic reports whether the file at path begins with magic; a file
// shorter than the magic is simply not one.
func sniffMagic(path string, magic [8]byte) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil
		}
		return false, err
	}
	return head == magic, nil
}

// Load reconstructs a frozen store from snapshot image bytes without
// copying the bulk sections: the store's triple arrays, row pointers
// and columns — and the dictionary's term strings — are views into
// data, which must therefore stay alive and unmodified for the life of
// the store. Open wraps Load over a memory-mapped file; Load itself is
// also the fuzzing entry point and must return an error (never panic)
// on arbitrary input.
func Load(data []byte) (*store.Store, error) {
	if len(data) < len(Magic) || !bytes.Equal(data[:len(Magic)], Magic[:]) {
		return nil, ErrNotSnapshot
	}
	if len(data) < headerSize+tableSize {
		return nil, corruptf("file shorter than header and section table")
	}
	// The zero-copy casts require the section payloads to be aligned for
	// their element types. Section offsets are 8-aligned relative to the
	// file start, so an 8-aligned base covers every payload; mmap returns
	// page-aligned memory, but Load accepts arbitrary buffers (fuzzing,
	// read-file fallback), so realign by copying when needed.
	if uintptr(unsafe.Pointer(&data[0]))%sectionAlign != 0 {
		buf := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(data))
		copy(aligned, data)
		data = aligned
	}

	if v := binary.LittleEndian.Uint32(data[offVersion:]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", v, Version)
	}
	if crc := crc32.Checksum(data[:offHeaderCRC], castagnoli); crc != binary.LittleEndian.Uint32(data[offHeaderCRC:]) {
		return nil, corruptf("header checksum mismatch")
	}
	bom := byteOrderMark()
	if !bytes.Equal(data[offByteOrder:offByteOrder+4], bom[:]) {
		return nil, fmt.Errorf("snapshot: image was written on a platform with different byte order")
	}
	if sz := binary.LittleEndian.Uint64(data[offFileSize:]); sz != uint64(len(data)) {
		return nil, corruptf("header file size %d, actual %d (truncated or padded image)", sz, len(data))
	}
	numTriples64 := binary.LittleEndian.Uint64(data[offTriples:])
	numTerms64 := binary.LittleEndian.Uint64(data[offTerms:])
	if numTriples64 > math.MaxInt32 {
		return nil, corruptf("triple count %d exceeds format limit", numTriples64)
	}
	if numTerms64 > math.MaxInt32-2 {
		return nil, corruptf("term count %d exceeds format limit", numTerms64)
	}
	numTriples, numTerms := int(numTriples64), int(numTerms64)
	if got := binary.LittleEndian.Uint32(data[offSecCount:]); got != numSections {
		return nil, corruptf("section count %d, want %d", got, numSections)
	}
	table := data[headerSize : headerSize+tableSize]
	if crc := crc32.Checksum(table, castagnoli); crc != binary.LittleEndian.Uint32(data[offTableCRC:]) {
		return nil, corruptf("section table checksum mismatch")
	}

	// Parse and bounds-check the section table. Every kind must appear
	// exactly once; offsets must be aligned and inside the file.
	var secs [numSections + 1][]byte
	seen := [numSections + 1]bool{}
	type span struct{ off, end uint64 }
	spans := make([]span, 0, numSections)
	for i := 0; i < numSections; i++ {
		e := table[i*sectionEntrySize:]
		kind := binary.LittleEndian.Uint32(e[0:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		if kind == 0 || kind > numSections {
			return nil, corruptf("unknown section kind %d", kind)
		}
		if seen[kind] {
			return nil, corruptf("duplicate section kind %d", kind)
		}
		seen[kind] = true
		if off%sectionAlign != 0 {
			return nil, corruptf("section %d misaligned offset %d", kind, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, corruptf("section %d [%d, +%d) outside file of %d bytes", kind, off, length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, corruptf("section %d checksum mismatch", kind)
		}
		secs[kind] = payload
		spans = append(spans, span{off, off + length})
	}

	// The payloads must tile the file exactly: ordered by offset, each
	// starts at the 8-aligned end of its predecessor, any alignment gap
	// is zero bytes, and the last one ends at EOF. This forbids
	// overlapping sections and leaves no byte of the image outside the
	// reach of a checksum or the zero-padding rule.
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.off, b.off) })
	cur := uint64(headerSize + tableSize)
	for _, sp := range spans {
		if sp.off != align(cur) {
			return nil, corruptf("section layout has a hole or overlap at byte %d", cur)
		}
		for _, pad := range data[cur:sp.off] {
			if pad != 0 {
				return nil, corruptf("nonzero alignment padding at byte %d", cur)
			}
		}
		cur = sp.end
	}
	if cur != uint64(len(data)) {
		return nil, corruptf("image has %d trailing bytes after the last section", uint64(len(data))-cur)
	}

	// Cross-check section lengths against the header counts before any
	// count-proportional allocation, so a forged header cannot provoke a
	// huge allocation: every count is tied back to a section that must
	// physically fit in the file.
	triBytes, idBytes := uint64(numTriples)*12, uint64(numTriples)*4
	offBytes := uint64(numTerms+2) * 4
	for _, c := range []struct {
		kind int
		want uint64
		name string
	}{
		{secSPOTri, triBytes, "SPO triples"},
		{secPOSTri, triBytes, "POS triples"},
		{secOSPTri, triBytes, "OSP triples"},
		{secSPOCol, idBytes, "SPO column"},
		{secPOSCol, idBytes, "POS column"},
		{secOSPCol, idBytes, "OSP column"},
		{secSPOOff, offBytes, "SPO row pointers"},
		{secPOSOff, offBytes, "POS row pointers"},
		{secOSPOff, offBytes, "OSP row pointers"},
	} {
		if uint64(len(secs[c.kind])) != c.want {
			return nil, corruptf("%s section is %d bytes, want %d", c.name, len(secs[c.kind]), c.want)
		}
	}

	l := store.Layout{
		SPO: store.PermLayout{
			Tri: view[store.EncTriple](secs[secSPOTri], 12),
			Off: view[int32](secs[secSPOOff], 4),
			Col: view[store.ID](secs[secSPOCol], 4),
		},
		POS: store.PermLayout{
			Tri: view[store.EncTriple](secs[secPOSTri], 12),
			Off: view[int32](secs[secPOSOff], 4),
			Col: view[store.ID](secs[secPOSCol], 4),
		},
		OSP: store.PermLayout{
			Tri: view[store.EncTriple](secs[secOSPTri], 12),
			Off: view[int32](secs[secOSPOff], 4),
			Col: view[store.ID](secs[secOSPCol], 4),
		},
	}

	// Row-pointer arrays are dereferenced unchecked on the query path
	// (run() trusts off[id] ≤ off[id+1] ≤ len(tri)), so their
	// monotonicity is a load-time invariant, not just a checksum matter.
	for _, c := range []struct {
		name  string
		off   []int32
		total int
	}{
		{"SPO row pointers", l.SPO.Off, numTriples},
		{"POS row pointers", l.POS.Off, numTriples},
		{"OSP row pointers", l.OSP.Off, numTriples},
	} {
		if err := checkRowPointers(c.name, c.off, c.total); err != nil {
			return nil, err
		}
	}

	// Triple and column IDs feed Terms.Term unchecked on the result
	// path, where the reserved ID 0 or an ID beyond the dictionary
	// panics; make those a load-time error instead. This is a
	// compare-only min/max sweep, far cheaper than the parse work the
	// format avoids — the sortedness of the permutations is still
	// trusted to the checksums (a forged image can produce wrong
	// results, not panics).
	if numTriples > 0 {
		lo, hi := store.ID(math.MaxUint32), store.ID(0)
		for _, tri := range [][]store.EncTriple{l.SPO.Tri, l.POS.Tri, l.OSP.Tri} {
			for _, tr := range tri {
				lo = min(lo, tr.S, tr.P, tr.O)
				hi = max(hi, tr.S, tr.P, tr.O)
			}
		}
		for _, col := range [][]store.ID{l.SPO.Col, l.POS.Col, l.OSP.Col} {
			for _, id := range col {
				lo, hi = min(lo, id), max(hi, id)
			}
		}
		if lo == store.None || int(hi) > numTerms {
			return nil, corruptf("triples reference term IDs in [%d, %d], outside the dictionary's [1, %d]", lo, hi, numTerms)
		}
	}

	dict, err := store.NewLoadedDict(secs[secDictBlob], numTerms)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	stats, err := decodeStats(secs[secStats], numTriples, numTerms)
	if err != nil {
		return nil, err
	}
	return store.FromLayout(dict, l, stats), nil
}

// view reinterprets a validated section payload as a typed slice. The
// payload is 8-aligned (section offsets are 8-aligned over an 8-aligned
// base) and its length is a multiple of elemSize by prior validation.
func view[T any](b []byte, elemSize int) []T {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/elemSize)
}

// checkRowPointers verifies a CSR row-pointer array: starts at 0, is
// nondecreasing, and ends at the total it indexes into.
func checkRowPointers(name string, off []int32, total int) error {
	if len(off) == 0 || off[0] != 0 {
		return corruptf("%s do not start at 0", name)
	}
	prev := int32(0)
	for _, v := range off {
		if v < prev {
			return corruptf("%s decrease (%d after %d)", name, v, prev)
		}
		prev = v
	}
	if int(prev) != total {
		return corruptf("%s end at %d, want %d", name, prev, total)
	}
	return nil
}

// decodeStats reconstructs the build-time statistics and cross-checks
// them against the header counts.
func decodeStats(b []byte, numTriples, numTerms int) (*store.Stats, error) {
	if len(b) < 36 {
		return nil, corruptf("statistics section is %d bytes, want at least 36", len(b))
	}
	s := &store.Stats{
		NumTriples:   int(binary.LittleEndian.Uint64(b[0:])),
		NumEntities:  int(binary.LittleEndian.Uint64(b[8:])),
		NumPreds:     int(binary.LittleEndian.Uint64(b[16:])),
		NumLiterals:  int(binary.LittleEndian.Uint64(b[24:])),
		PredCount:    map[store.ID]int{},
		PredSubjects: map[store.ID]int{},
		PredObjects:  map[store.ID]int{},
	}
	if s.NumTriples != numTriples {
		return nil, corruptf("statistics count %d triples, header says %d", s.NumTriples, numTriples)
	}
	if s.NumEntities < 0 || s.NumEntities > numTerms || s.NumLiterals < 0 || s.NumLiterals > numTerms {
		return nil, corruptf("statistics count more entities/literals than dictionary terms")
	}
	entries := int(binary.LittleEndian.Uint32(b[32:]))
	if uint64(len(b)) != 36+16*uint64(entries) {
		return nil, corruptf("statistics section is %d bytes for %d predicate entries", len(b), entries)
	}
	if s.NumPreds != entries {
		return nil, corruptf("statistics list %d predicates, header field says %d", entries, s.NumPreds)
	}
	for i := 0; i < entries; i++ {
		e := b[36+16*i:]
		p := store.ID(binary.LittleEndian.Uint32(e[0:]))
		if p == store.None || int(p) > numTerms {
			return nil, corruptf("statistics reference out-of-range predicate %d", p)
		}
		if _, dup := s.PredCount[p]; dup {
			return nil, corruptf("statistics list predicate %d twice", p)
		}
		s.PredCount[p] = int(binary.LittleEndian.Uint32(e[4:]))
		s.PredSubjects[p] = int(binary.LittleEndian.Uint32(e[8:]))
		s.PredObjects[p] = int(binary.LittleEndian.Uint32(e[12:]))
	}
	return s, nil
}
