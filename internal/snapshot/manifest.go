package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"sparqluo/internal/store"
)

// A shard manifest describes a set of snapshot images that together hold
// one triple set, range-partitioned by subject ID. The manifest is tiny
// — it carries the partition table and the original store's global
// statistics, not any triple data — and is CRC-checked end to end.
//
// # Manifest layout (version 1, little-endian)
//
//	[0, 8)    magic (distinct from the image magic)
//	[8, 12)   version u32
//	[12, 16)  shard count k u32
//	[16, 24)  total triples u64
//	[24, 32)  dictionary terms u64
//	[32, 36)  statistics blob length u32
//	[36, ...) statistics blob (same encoding as an image's stats section;
//	          the statistics of the unpartitioned store; OpenShards
//	          rebuilds them when it folds the shards into one store)
//	[...]     k shard entries:
//	            {lo u32, hi u32, triples u64, nameLen u16, name}
//	          shard i holds the triples with subject in [lo, hi); ranges
//	          must start at 0, be contiguous, and end at terms+1; names
//	          are image file names relative to the manifest's directory
//	[last 4]  CRC32-C over every preceding byte
var ManifestMagic = [8]byte{0x89, 'S', 'P', 'Q', 'S', 'H', 0x1a, '\n'}

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// ErrNotManifest reports that a file does not begin with the shard
// manifest magic.
var ErrNotManifest = errors.New("snapshot: not a shard manifest")

// ShardEntry is one shard's row in the manifest.
type ShardEntry struct {
	Name    string   // image file name, relative to the manifest's directory
	Lo, Hi  store.ID // subject-ID range [Lo, Hi)
	Triples int      // triples in this shard
}

// Manifest is the parsed shard manifest.
type Manifest struct {
	NumTriples int          // total triples across all shards
	NumTerms   int          // dictionary terms (shared ID space)
	Stats      *store.Stats // global statistics of the full triple set
	Shards     []ShardEntry
}

const manifestFixedSize = 36 // magic + version + count + triples + terms + statsLen

// encode serializes the manifest (including the trailing CRC).
func (m *Manifest) encode() ([]byte, error) {
	stats := encodeStats(m.Stats)
	b := make([]byte, 0, manifestFixedSize+len(stats)+len(m.Shards)*32)
	b = append(b, ManifestMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ManifestVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Shards)))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.NumTriples))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.NumTerms))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(stats)))
	b = append(b, stats...)
	for i, e := range m.Shards {
		if err := checkShardName(e.Name); err != nil {
			return nil, fmt.Errorf("snapshot: shard %d: %w", i, err)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Lo))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Hi))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Triples))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Name)))
		b = append(b, e.Name...)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b, nil
}

// checkShardName enforces that a shard image name is a plain file name:
// relative references and separators would let a manifest point outside
// its own directory.
func checkShardName(name string) error {
	if name == "" || len(name) > math.MaxUint16 {
		return fmt.Errorf("invalid image name length %d", len(name))
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return fmt.Errorf("image name %q is not a plain file name", name)
	}
	return nil
}

// ParseManifest decodes and validates manifest bytes. Like Load, it is a
// fuzzing entry point: arbitrary input must produce an error, never a
// panic. Validation covers the CRC, the count cross-checks, and the
// partition table (ranges start at 0, are contiguous and strictly
// increasing, end at terms+1, and their triple counts sum to the total).
func ParseManifest(data []byte) (*Manifest, error) {
	if len(data) < len(ManifestMagic) || !bytes.Equal(data[:len(ManifestMagic)], ManifestMagic[:]) {
		return nil, ErrNotManifest
	}
	if len(data) < manifestFixedSize+4 {
		return nil, corruptf("manifest shorter than its fixed header")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, corruptf("manifest checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ManifestVersion {
		return nil, fmt.Errorf("snapshot: unsupported manifest version %d (this build reads version %d)", v, ManifestVersion)
	}
	k := int(binary.LittleEndian.Uint32(data[12:]))
	triples64 := binary.LittleEndian.Uint64(data[16:])
	terms64 := binary.LittleEndian.Uint64(data[24:])
	statsLen := int(binary.LittleEndian.Uint32(data[32:]))
	if k < 1 || k > len(body) {
		return nil, corruptf("manifest shard count %d out of range", k)
	}
	if triples64 > math.MaxInt32 {
		return nil, corruptf("manifest triple count %d exceeds format limit", triples64)
	}
	if terms64 > math.MaxInt32-2 {
		return nil, corruptf("manifest term count %d exceeds format limit", terms64)
	}
	m := &Manifest{NumTriples: int(triples64), NumTerms: int(terms64)}
	rest := body[manifestFixedSize:]
	if statsLen > len(rest) {
		return nil, corruptf("manifest statistics blob of %d bytes overruns the file", statsLen)
	}
	stats, err := decodeStats(rest[:statsLen], m.NumTriples, m.NumTerms)
	if err != nil {
		return nil, err
	}
	m.Stats = stats
	rest = rest[statsLen:]

	sum := 0
	for i := 0; i < k; i++ {
		if len(rest) < 18 {
			return nil, corruptf("manifest truncated inside shard entry %d", i)
		}
		e := ShardEntry{
			Lo: store.ID(binary.LittleEndian.Uint32(rest[0:])),
			Hi: store.ID(binary.LittleEndian.Uint32(rest[4:])),
		}
		t64 := binary.LittleEndian.Uint64(rest[8:])
		nameLen := int(binary.LittleEndian.Uint16(rest[16:]))
		rest = rest[18:]
		if t64 > math.MaxInt32 {
			return nil, corruptf("shard %d triple count %d exceeds format limit", i, t64)
		}
		e.Triples = int(t64)
		if nameLen > len(rest) {
			return nil, corruptf("shard %d name of %d bytes overruns the manifest", i, nameLen)
		}
		e.Name = string(rest[:nameLen])
		rest = rest[nameLen:]
		if err := checkShardName(e.Name); err != nil {
			return nil, corruptf("shard %d: %v", i, err)
		}
		if e.Lo >= e.Hi {
			return nil, corruptf("shard %d range [%d, %d) is empty or inverted", i, e.Lo, e.Hi)
		}
		if i == 0 && e.Lo != 0 {
			return nil, corruptf("shard ranges must start at ID 0, got %d", e.Lo)
		}
		if i > 0 && e.Lo != m.Shards[i-1].Hi {
			return nil, corruptf("shard %d range starts at %d, previous ends at %d (gap or overlap)",
				i, e.Lo, m.Shards[i-1].Hi)
		}
		sum += e.Triples
		m.Shards = append(m.Shards, e)
	}
	if len(rest) != 0 {
		return nil, corruptf("manifest has %d trailing bytes after the last shard entry", len(rest))
	}
	if hi := m.Shards[k-1].Hi; int(hi) != m.NumTerms+1 {
		return nil, corruptf("shard ranges end at %d, want maxID+1 = %d", hi, m.NumTerms+1)
	}
	if sum != m.NumTriples {
		return nil, corruptf("shard triple counts sum to %d, manifest total is %d", sum, m.NumTriples)
	}
	return m, nil
}

// ReadManifest reads and parses the manifest file at path.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseManifest(data)
}

// WriteManifest writes the manifest to path atomically and durably
// (writeAtomic, the discipline WriteFile uses).
func WriteManifest(path string, m *Manifest) error {
	data, err := m.encode()
	if err != nil {
		return err
	}
	return writeAtomic(path, ".manifest-*", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SniffManifest reports whether the file at path begins with the shard
// manifest magic.
func SniffManifest(path string) (bool, error) { return sniffMagic(path, ManifestMagic) }

// ShardImageName returns the image file name of shard i for a manifest
// at path: "<base>.<i padded to 3>".
func ShardImageName(path string, i int) string {
	return fmt.Sprintf("%s.%03d", filepath.Base(path), i)
}

// ShardImagePath returns the full path of shard i's image for a
// manifest at path (the image sits in the manifest's directory).
func ShardImagePath(path string, i int) string {
	return filepath.Join(filepath.Dir(path), ShardImageName(path, i))
}

// WriteShards splits a frozen store into k subject-range shards and
// writes one snapshot image per shard next to the manifest at path
// (images are named ShardImageName(path, i)), then writes the manifest
// itself. Every file is written atomically; the manifest goes last, so a
// crash mid-run never leaves a manifest naming missing images. Returns
// the image paths in shard order.
func WriteShards(path string, st *store.Store, k int) ([]string, error) {
	shards, bounds, err := st.ShardBySubject(k)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	m := &Manifest{
		NumTriples: st.NumTriples(),
		NumTerms:   st.Dict().Len(),
		Stats:      st.Stats(),
		Shards:     make([]ShardEntry, k),
	}
	paths := make([]string, k)
	for i, sub := range shards {
		name := ShardImageName(path, i)
		img := filepath.Join(dir, name)
		if err := WriteFile(img, sub); err != nil {
			return nil, fmt.Errorf("snapshot: writing shard %d: %w", i, err)
		}
		paths[i] = img
		m.Shards[i] = ShardEntry{Name: name, Lo: bounds[i], Hi: bounds[i+1], Triples: sub.NumTriples()}
	}
	if err := WriteManifest(path, m); err != nil {
		return nil, err
	}
	return paths, nil
}

// OpenShards reads the manifest at path, opens every shard image in
// parallel, and folds the shards into one store. Each image is
// validated by the regular snapshot loader (CRCs, row pointers, ID
// ranges), then cross-checked against its manifest entry: dictionary
// size, triple count, and subject-range confinement (every triple's
// subject inside [Lo, Hi) — an O(1) row-pointer check). The shards' SPO
// runs, concatenated in shard order, are the unsplit store's SPO
// permutation, so the folded store is the one the set was split from:
// same permutations, same statistics. The mappings of shards 1..k-1 are
// closed before returning; shard 0's backs the dictionary's term
// strings, so the returned mapping must stay alive as long as the store
// is in use and be closed afterwards.
func OpenShards(path string) (*store.Store, *Mapping, *Manifest, error) {
	m, err := ReadManifest(path)
	if err != nil {
		return nil, nil, nil, err
	}
	dir := filepath.Dir(path)
	k := len(m.Shards)
	shards := make([]*store.Store, k)
	maps := make([]*Mapping, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, e := range m.Shards {
		wg.Add(1)
		go func(i int, e ShardEntry) {
			defer wg.Done()
			st, mp, err := Open(filepath.Join(dir, e.Name))
			if err != nil {
				errs[i] = fmt.Errorf("snapshot: shard %d (%s): %w", i, e.Name, err)
				return
			}
			shards[i], maps[i] = st, mp
		}(i, e)
	}
	wg.Wait()
	closeAll := func(maps []*Mapping) {
		for _, mp := range maps {
			mp.Close()
		}
	}
	fail := func(err error) (*store.Store, *Mapping, *Manifest, error) {
		closeAll(maps)
		return nil, nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	tris := make([]store.EncTriple, 0, m.NumTriples)
	for i, e := range m.Shards {
		sh := shards[i]
		if got := sh.Dict().Len(); got != m.NumTerms {
			return fail(corruptf("shard %d image has %d dictionary terms, manifest says %d", i, got, m.NumTerms))
		}
		if got := sh.NumTriples(); got != e.Triples {
			return fail(corruptf("shard %d image holds %d triples, manifest says %d", i, got, e.Triples))
		}
		if got := sh.SubjectSpan(e.Lo, e.Hi); got != e.Triples {
			return fail(corruptf("shard %d holds %d of %d triples inside its range [%d,%d)", i, got, e.Triples, e.Lo, e.Hi))
		}
		tris = append(tris, sh.Triples()...)
	}
	st, err := store.FromTriples(shards[0].Dict(), tris)
	if err != nil {
		return fail(fmt.Errorf("snapshot: folding shards: %w", err))
	}
	closeAll(maps[1:])
	return st, maps[0], m, nil
}
