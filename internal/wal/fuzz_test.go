package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sparqluo/internal/rdf"
)

// segmentBytes builds a well-formed single-segment log in memory: the
// seed corpus starts from real bytes so the fuzzer's mutations explore
// the interesting frontier (almost-valid logs) instead of rejecting
// noise at the magic check.
func segmentBytes(recs []Record) []byte {
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint64(hdr[12:], 1)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], castagnoli))
	out := append([]byte(nil), hdr[:]...)
	for _, r := range recs {
		out = append(out, encodeRecord(r.Kind, r.Batch, r.Triples)...)
	}
	return out
}

// FuzzWALReplay holds recovery to the snapshot loader's bar: arbitrary
// bytes under a segment name must either open+replay cleanly or fail
// with an error — truncating a torn tail is fine, panicking or looping
// is not. Seeds cover truncations at every interesting boundary,
// bit-flips in the header, frame header, body and payload, and a
// mid-record tear with valid data behind it.
func FuzzWALReplay(f *testing.F) {
	ts := []rdf.Triple{
		{S: rdf.NewIRI("http://f/s"), P: rdf.NewIRI("http://f/p"), O: rdf.NewIRI("http://f/o")},
		{S: rdf.NewIRI("http://f/s2"), P: rdf.NewIRI("http://f/p"), O: rdf.NewLiteral("lit \"q\"\n")},
	}
	valid := segmentBytes([]Record{
		{Kind: Insert, Batch: 1, Triples: ts},
		{Kind: Delete, Batch: 2, Triples: ts[:1]},
		{Kind: Insert, Batch: 3, Triples: ts[1:]},
	})
	f.Add(valid)
	f.Add(valid[:headerSize])   // header only
	f.Add(valid[:headerSize/2]) // torn header
	f.Add(valid[:len(valid)-1]) // torn final record
	f.Add(valid[:headerSize+3]) // tear inside the first frame header
	f.Add([]byte{})             // empty file
	f.Add(segmentBytes(nil))    // empty segment
	for _, off := range []int{4, 12, headerSize + 1, headerSize + 6, headerSize + 20, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	// Mid-record tear with a valid-looking suffix: truncate record 2's
	// frame and splice record 3 directly behind the damage.
	r3 := encodeRecord(Insert, 3, ts[1:])
	torn := append([]byte(nil), valid[:len(valid)-len(r3)-4]...)
	f.Add(append(torn, r3...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "0000000000000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(dir, Options{})
		if err != nil {
			return // a typed refusal is a correct outcome
		}
		n := 0
		if err := l.Replay(func(r Record) error {
			n++
			if r.Kind != Insert && r.Kind != Delete {
				t.Fatalf("replay surfaced bad kind %d", r.Kind)
			}
			return nil
		}); err != nil {
			l.Close()
			return
		}
		// The log must stay appendable after any accepted input.
		if _, err := l.Append(Insert, ts[:1]); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		_ = n
	})
}
