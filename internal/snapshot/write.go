package snapshot

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"unsafe"

	"sparqluo/internal/store"
)

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bytesOf reinterprets a numeric slice as its raw bytes, zero-copy.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// Write serializes a store as a snapshot image: its layout, dictionary
// and statistics.
func Write(w io.Writer, st *store.Store) error {
	l := st.Layout()
	terms := st.Dict().Terms() // one snapshot: a live dictionary may grow meanwhile

	sections := make([][]byte, numSections+1) // indexed by section kind
	sections[secDictBlob] = terms.Records()
	sections[secSPOTri] = bytesOf(l.SPO.Tri)
	sections[secSPOOff] = bytesOf(l.SPO.Off)
	sections[secSPOCol] = bytesOf(l.SPO.Col)
	sections[secPOSTri] = bytesOf(l.POS.Tri)
	sections[secPOSOff] = bytesOf(l.POS.Off)
	sections[secPOSCol] = bytesOf(l.POS.Col)
	sections[secOSPTri] = bytesOf(l.OSP.Tri)
	sections[secOSPOff] = bytesOf(l.OSP.Off)
	sections[secOSPCol] = bytesOf(l.OSP.Col)
	sections[secStats] = encodeStats(st.Stats())

	// Lay the sections out after the header and table, each 8-aligned.
	table := make([]byte, tableSize)
	off := uint64(headerSize + tableSize)
	for kind := 1; kind <= numSections; kind++ {
		off = align(off)
		e := table[(kind-1)*sectionEntrySize:]
		binary.LittleEndian.PutUint32(e[0:], uint32(kind))
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(sections[kind])))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(sections[kind], castagnoli))
		off += uint64(len(sections[kind]))
	}

	header := make([]byte, headerSize)
	copy(header[offMagic:], Magic[:])
	binary.LittleEndian.PutUint32(header[offVersion:], Version)
	bom := byteOrderMark()
	copy(header[offByteOrder:], bom[:])
	binary.LittleEndian.PutUint64(header[offFileSize:], off)
	binary.LittleEndian.PutUint64(header[offTriples:], uint64(st.NumTriples()))
	binary.LittleEndian.PutUint64(header[offTerms:], uint64(terms.Len()))
	binary.LittleEndian.PutUint32(header[offSecCount:], numSections)
	binary.LittleEndian.PutUint32(header[offTableCRC:], crc32.Checksum(table, castagnoli))
	binary.LittleEndian.PutUint32(header[offHeaderCRC:], crc32.Checksum(header[:offHeaderCRC], castagnoli))

	bw := bufio.NewWriterSize(w, 1<<20)
	pos := uint64(0)
	emit := func(b []byte) error {
		if pad := align(pos) - pos; pad > 0 {
			if _, err := bw.Write(make([]byte, pad)); err != nil {
				return err
			}
			pos += pad
		}
		n, err := bw.Write(b)
		pos += uint64(n)
		return err
	}
	if _, err := bw.Write(header); err != nil {
		return err
	}
	pos += headerSize
	if _, err := bw.Write(table); err != nil {
		return err
	}
	pos += tableSize
	for kind := 1; kind <= numSections; kind++ {
		if err := emit(sections[kind]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the snapshot to path atomically (see writeAtomic).
func WriteFile(path string, st *store.Store) error {
	return writeAtomic(path, ".snapshot-*", func(w io.Writer) error { return Write(w, st) })
}

// writeAtomic creates path with the content write produces, atomically
// and durably: the bytes are assembled in a sibling temp file (named by
// tmpPattern), synced to stable storage and renamed into place, so a
// crash mid-write never leaves a half file under the target name, and
// any failure removes the temp file and leaves the target untouched.
func writeAtomic(path, tmpPattern string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		// CreateTemp opens 0600; images are shareable artifacts like the
		// N-Triples they cache (a deploy job often writes them as a
		// different user than the server reads them as).
		err = f.Chmod(0o644)
	}
	if err == nil {
		// Flush data before the rename: otherwise the filesystem may
		// commit the rename but not the pages, leaving a truncated file
		// under the final name after power loss — exactly what the temp
		// file exists to prevent.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable: without a directory fsync the
	// new name can vanish on power loss even though the data pages are
	// on the platter. The WAL retires its segments the moment a
	// compaction's WriteFile returns, so the image must actually exist
	// after a crash. Best effort on platforms that cannot fsync a
	// directory.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func align(off uint64) uint64 {
	return (off + sectionAlign - 1) &^ (sectionAlign - 1)
}

// encodeStats serializes the build-time statistics:
//
//	u64 NumTriples · u64 NumEntities · u64 NumPreds · u64 NumLiterals
//	u32 entry count · entries of {pred u32, count u32, subjects u32, objects u32}
//
// Entries are emitted in ascending predicate ID order so images are
// byte-deterministic for a given store.
func encodeStats(s *store.Stats) []byte {
	preds := make([]store.ID, 0, len(s.PredCount))
	for p := range s.PredCount {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	b := make([]byte, 0, 36+16*len(preds))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NumTriples))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NumEntities))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NumPreds))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NumLiterals))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(preds)))
	for _, p := range preds {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.PredCount[p]))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.PredSubjects[p]))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.PredObjects[p]))
	}
	return b
}
