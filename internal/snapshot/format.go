// Package snapshot defines a versioned on-disk binary image format for
// a frozen store and implements a writer and a zero-copy loader for it.
//
// Motivation: the columnar store is built by an O(n log n) sort of the
// triple log, and feeding it requires parsing N-Triples text. A server
// (or a freshly spawned shard) should not pay either cost on boot.
// Because every index structure of the frozen store is a
// position-independent flat array (sorted permutations, CSR row
// pointers, dense-ID columns), the store can be dumped as-is and
// reconstructed by memory-mapping the file and slicing typed views over
// the mapped bytes — cold start becomes an open+mmap plus an O(terms)
// dictionary walk, with no per-triple work at all.
//
// # File layout (version 2)
//
//	[0, 64)            fixed header (little-endian):
//	                     magic [8]byte, version u32, byte-order mark
//	                     [4]byte, file size u64, numTriples u64,
//	                     numTerms u64, section count u32, section-table
//	                     CRC32-C u32, reserved [12]byte, header CRC32-C
//	                     u32 (over bytes [0, 60))
//	[64, 64+32·n)      section table: n entries of
//	                     {kind u32, reserved u32, offset u64, length
//	                     u64, CRC32-C u32, reserved u32}
//	[...]              section payloads, each 8-byte aligned
//
// Version 2 has exactly the 11 sections enumerated below, each present
// exactly once, and the payloads (with their zero alignment padding)
// tile the rest of the file exactly — every byte of an image is covered
// by the header CRC, the table CRC, a section CRC, or the
// must-be-zero-padding rule, so any single corrupted byte is detected. The bulk numeric sections (triple arrays, row pointers,
// columns) are raw dumps of the store's in-memory arrays in the
// *writer's native byte order*; the byte-order mark records that order
// and the loader refuses images written on a platform with a different
// one, so the zero-copy cast is always correct and cross-endian images
// fail loudly instead of silently misreading. All metadata (header,
// section table, dictionary records, statistics) is little-endian
// regardless of platform.
//
// # Integrity and trust model
//
// Every section carries a CRC32-C checksum, verified at load time, and
// the loader bounds-checks the header, the section table, the
// dictionary records, the monotonicity of every row-pointer array, and
// the dictionary range of every triple/column ID (a compare-only
// min/max sweep) before handing out views. That makes accidental
// corruption (truncation, bit rot, torn writes) a clean error, never a
// panic — FuzzSnapshotLoad locks this in — and keeps even a crafted
// image with matching checksums from reaching out-of-range dictionary
// IDs at query time. What the loader deliberately does *not* verify is
// the sort order of the permutations (that would reintroduce the
// per-triple cold-start cost the format exists to avoid), so a forged
// image can still produce wrong query results. Treat image files with
// the same trust as the data directory of any embedded database.
//
// # Versioning
//
// The version field is a single monotonically increasing format number.
// Readers reject any version they do not know (there is no
// minor/compatible tier yet); any layout change — new section kinds,
// record changes — bumps it. Snapshots are a cache of the canonical
// N-Triples data, so migration is "regenerate the image", never an
// in-place upgrade.
package snapshot

import (
	"unsafe"

	"sparqluo/internal/store"
)

// Magic identifies a snapshot image. Modeled on the PNG signature: the
// high bit catches 7-bit transfer mangling, 0x1a stops accidental
// terminal cat on DOS-heritage systems, and the trailing \n catches
// newline translation. No N-Triples document can begin with these bytes.
var Magic = [8]byte{0x89, 'S', 'P', 'Q', 'U', 'O', 0x1a, '\n'}

// Version is the current format version; see the package comment for
// the compatibility policy.
const Version = 2

// Section kinds of format version 2. Every kind appears exactly once.
const (
	secDictBlob = iota + 1 // dictionary term records (see store.NewLoadedDict)
	secSPOTri              // []EncTriple sorted (S,P,O)
	secSPOOff              // []int32 row pointers over S
	secSPOCol              // []ID object column
	secPOSTri              // []EncTriple sorted (P,O,S)
	secPOSOff              // []int32 row pointers over P
	secPOSCol              // []ID subject column
	secOSPTri              // []EncTriple sorted (O,S,P)
	secOSPOff              // []int32 row pointers over O
	secOSPCol              // []ID predicate column
	secStats               // frozen-store statistics (see write.go)
	numSections = secStats
)

const (
	headerSize       = 64
	sectionEntrySize = 32
	tableSize        = numSections * sectionEntrySize
	sectionAlign     = 8
)

// Fixed field offsets within the header.
const (
	offMagic     = 0
	offVersion   = 8
	offByteOrder = 12
	offFileSize  = 16
	offTriples   = 24
	offTerms     = 32
	offSecCount  = 40
	offTableCRC  = 44
	offHeaderCRC = 60 // CRC32-C over header bytes [0, 60)
)

// byteOrderMark returns the platform's native encoding of 0x01020304.
// Writer and loader both derive it the same way, so equality means the
// bulk sections can be reinterpreted in place.
func byteOrderMark() [4]byte {
	x := uint32(0x01020304)
	return *(*[4]byte)(unsafe.Pointer(&x))
}

// The zero-copy casts in view/bytesOf assume the in-memory sizes of the
// array element types; these blank declarations fail to compile if a
// store change ever alters them.
var (
	_ [12]byte = [unsafe.Sizeof(store.EncTriple{})]byte{}
	_ [4]byte  = [unsafe.Sizeof(store.ID(0))]byte{}
)
