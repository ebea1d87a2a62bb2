package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparqluo/internal/store"
)

// writeTestShards writes a k-way shard set for the shared test store
// into a temp dir and returns the manifest path and the source store.
func writeTestShards(t *testing.T, k int) (string, *store.Store) {
	t.Helper()
	st := testStore(t)
	path := filepath.Join(t.TempDir(), "store.shards")
	paths, err := WriteShards(path, st, k)
	if err != nil {
		t.Fatalf("WriteShards(k=%d): %v", k, err)
	}
	if len(paths) != k {
		t.Fatalf("WriteShards returned %d image paths, want %d", len(paths), k)
	}
	return path, st
}

// TestShardRoundTrip: write a shard set, reopen it, and demand the
// folded store answer every accessor exactly like the source store —
// including the statistics, which feed the cost models.
func TestShardRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		path, st := writeTestShards(t, k)
		sh, mp, m, err := OpenShards(path)
		if err != nil {
			t.Fatalf("OpenShards(k=%d): %v", k, err)
		}
		if len(m.Shards) != k {
			t.Fatalf("k=%d: manifest lists %d shards", k, len(m.Shards))
		}
		if sh.NumTriples() != st.NumTriples() {
			t.Fatalf("k=%d: NumTriples = %d, want %d", k, sh.NumTriples(), st.NumTriples())
		}
		if !reflect.DeepEqual(sh.Stats(), st.Stats()) || !reflect.DeepEqual(m.Stats, st.Stats()) {
			t.Errorf("k=%d: statistics differ after shard round trip", k)
		}
		if !reflect.DeepEqual(sh.Triples(), st.Triples()) {
			t.Errorf("k=%d: Triples() differs after shard round trip", k)
		}
		for _, tr := range st.Triples() {
			if !sh.Contains(tr.S, tr.P, tr.O) {
				t.Fatalf("k=%d: opened store missing triple %+v", k, tr)
			}
			if !reflect.DeepEqual(sh.ObjectsSP(tr.S, tr.P), st.ObjectsSP(tr.S, tr.P)) {
				t.Fatalf("k=%d: ObjectsSP(%d,%d) differs", k, tr.S, tr.P)
			}
			if !reflect.DeepEqual(sh.SubjectsPO(tr.P, tr.O), st.SubjectsPO(tr.P, tr.O)) {
				t.Fatalf("k=%d: SubjectsPO(%d,%d) differs", k, tr.P, tr.O)
			}
		}
		if err := mp.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestSniffManifest(t *testing.T) {
	path, _ := writeTestShards(t, 2)
	if ok, err := SniffManifest(path); err != nil || !ok {
		t.Fatalf("SniffManifest(manifest) = (%v, %v), want (true, nil)", ok, err)
	}
	if ok, err := SniffManifest(ShardImagePath(path, 0)); err != nil || ok {
		t.Fatalf("SniffManifest(image) = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := Sniff(path); err != nil || ok {
		t.Fatalf("Sniff(manifest) = (%v, %v), want (false, nil)", ok, err)
	}
}

// refreshManifestCRC recomputes the trailing checksum after a test has
// mutated manifest bytes, so structural validators are what gets hit.
func refreshManifestCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:],
		crc32.Checksum(b[:len(b)-4], castagnoli))
}

// TestManifestRejectsCorruption drives ParseManifest through the
// corruption shapes the loader must survive: truncation anywhere, bit
// flips anywhere, trailing garbage, and — with the CRC refreshed so the
// structural checks are what fires — forged partition tables that
// overlap, gap, invert, or miscount. Every case must error; none may
// panic.
func TestManifestRejectsCorruption(t *testing.T) {
	path, st := writeTestShards(t, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(raw); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(raw); n++ {
			if _, err := ParseManifest(raw[:n]); err == nil {
				t.Fatalf("ParseManifest of %d-byte prefix succeeded", n)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		for pos := 0; pos < len(raw); pos++ {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 0x20
			_, err := ParseManifest(mut)
			if err == nil {
				t.Fatalf("ParseManifest with bit flipped at %d succeeded", pos)
			}
			if pos < len(ManifestMagic) && !errors.Is(err, ErrNotManifest) {
				t.Fatalf("flip in magic at %d: got %v, want ErrNotManifest", pos, err)
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := ParseManifest(append(append([]byte(nil), raw...), 0xCD)); err == nil {
			t.Error("ParseManifest with trailing byte succeeded")
		}
	})

	t.Run("version", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[8] = 99
		refreshManifestCRC(mut)
		if _, err := ParseManifest(mut); err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("unknown version: got %v, want a distinct version error", err)
		}
	})

	// Forged partition tables, rebuilt from the parsed manifest so each
	// case states its shape directly.
	m, err := ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	forged := []struct {
		name string
		mut  func(c *Manifest)
	}{
		{"overlapping ranges", func(c *Manifest) { c.Shards[1].Lo-- }},
		{"gap between ranges", func(c *Manifest) { c.Shards[1].Lo++ }},
		{"inverted range", func(c *Manifest) { c.Shards[1].Lo, c.Shards[1].Hi = c.Shards[1].Hi, c.Shards[1].Lo }},
		{"nonzero first lo", func(c *Manifest) { c.Shards[0].Lo = 1 }},
		{"short last hi", func(c *Manifest) { c.Shards[len(c.Shards)-1].Hi-- }},
		{"triple sum mismatch", func(c *Manifest) { c.Shards[0].Triples++ }},
		{"total mismatch", func(c *Manifest) { c.NumTriples++ }},
	}
	for _, f := range forged {
		t.Run(f.name, func(t *testing.T) {
			c := &Manifest{
				NumTriples: m.NumTriples,
				NumTerms:   m.NumTerms,
				Stats:      st.Stats(),
				Shards:     append([]ShardEntry(nil), m.Shards...),
			}
			f.mut(c)
			data, err := c.encode()
			if err != nil {
				return // encode itself rejected the forgery: fine
			}
			if _, err := ParseManifest(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}

	t.Run("escaping name", func(t *testing.T) {
		c := &Manifest{NumTriples: m.NumTriples, NumTerms: m.NumTerms, Stats: st.Stats(),
			Shards: append([]ShardEntry(nil), m.Shards...)}
		c.Shards[0].Name = "../evil.img"
		if _, err := c.encode(); err == nil {
			t.Fatal("encode accepted an image name with a path separator")
		}
	})
}

// TestOpenShardsRejectsBadSets: a manifest whose images are missing,
// swapped, or inconsistent with its entries must fail to open — with an
// error, never a panic — and must not leak mappings.
func TestOpenShardsRejectsBadSets(t *testing.T) {
	t.Run("missing image", func(t *testing.T) {
		path, _ := writeTestShards(t, 3)
		if err := os.Remove(ShardImagePath(path, 1)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenShards(path); err == nil {
			t.Fatal("OpenShards with a missing image succeeded")
		}
	})
	t.Run("swapped images", func(t *testing.T) {
		path, _ := writeTestShards(t, 3)
		a, b := ShardImagePath(path, 0), ShardImagePath(path, 1)
		tmp := a + ".tmp"
		for _, step := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
			if err := os.Rename(step[0], step[1]); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := OpenShards(path); err == nil {
			t.Fatal("OpenShards with swapped shard images succeeded")
		}
	})
	t.Run("corrupt image", func(t *testing.T) {
		path, _ := writeTestShards(t, 2)
		img := ShardImagePath(path, 0)
		data, err := os.ReadFile(img)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(img, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenShards(path); err == nil {
			t.Fatal("OpenShards with a corrupt image succeeded")
		}
	})
	t.Run("not a manifest", func(t *testing.T) {
		path, _ := writeTestShards(t, 2)
		if _, _, _, err := OpenShards(ShardImagePath(path, 0)); !errors.Is(err, ErrNotManifest) {
			t.Fatalf("OpenShards(image) = %v, want ErrNotManifest", err)
		}
	})
}

// TestWriteShardsErrors: invalid shard counts and unfrozen stores are
// rejected before anything is written.
func TestWriteShardsErrors(t *testing.T) {
	st := testStore(t)
	dir := t.TempDir()
	if _, err := WriteShards(filepath.Join(dir, "m"), st, 0); err == nil {
		t.Error("WriteShards(k=0) succeeded")
	}
	if _, err := WriteShards(filepath.Join(dir, "m"), st, st.Dict().Len()+2); err == nil {
		t.Error("WriteShards(k > maxID+1) succeeded")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("failed WriteShards left %d files behind", len(entries))
	}
}
