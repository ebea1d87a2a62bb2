package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"sparqluo/internal/rdf"
)

// validateSegment scans one segment file front to back without
// decoding payloads. For the final segment a torn tail — an incomplete
// or CRC-failing suffix, the write the process died inside — is
// truncated off the file (and the truncated byte count returned); in
// any earlier segment the same damage is a *CorruptError, because a
// sealed segment can only lose bytes to real corruption. A final
// segment whose header never fully reached the disk (a crash during
// rotation, before any record could be acknowledged) is removed
// entirely and reported with a negative segment size.
func validateSegment(path string, index uint64, final bool) (seg segment, records int, maxBatch uint64, truncated int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	if !validHeader(data, index) {
		if final {
			if err := os.Remove(path); err != nil {
				return segment{}, 0, 0, 0, fmt.Errorf("wal: %w", err)
			}
			return segment{index: index, bytes: -1}, 0, 0, int64(len(data)), nil
		}
		return segment{}, 0, 0, 0, &CorruptError{Segment: path, Offset: 0, Reason: "bad segment header"}
	}

	off := int64(headerSize)
	for off < int64(len(data)) {
		n, batch, reason := checkFrame(data, off)
		if reason != "" {
			if final && tornTail(data, off) {
				// Torn tail: cut the file back to the last whole record
				// so future appends and replays never see it again.
				if err := truncateFile(path, off); err != nil {
					return segment{}, 0, 0, 0, err
				}
				return segment{index: index, bytes: off}, records, maxBatch, int64(len(data)) - off, nil
			}
			return segment{}, 0, 0, 0, &CorruptError{Segment: path, Offset: off, Reason: reason}
		}
		records++
		if batch > maxBatch {
			maxBatch = batch
		}
		off += n
	}
	return segment{index: index, bytes: off}, records, maxBatch, 0, nil
}

// tornTail reports whether the bad frame at off is consistent with a
// torn append: the claimed frame runs to (or past) the end of the file,
// so no acknowledged record can live behind the damage and truncating
// at off loses nothing that was ever acked. A bad frame with intact
// data beyond it cannot be a tear — appends are strictly sequential, so
// nothing ever writes past an incomplete record — and is treated as
// real corruption instead.
func tornTail(data []byte, off int64) bool {
	rest := data[off:]
	if int64(len(rest)) < frameHeader {
		return true // the frame header itself is incomplete
	}
	bodyLen := int64(binary.LittleEndian.Uint32(rest[4:]))
	return frameHeader+bodyLen >= int64(len(rest))
}

// validHeader reports whether data starts with a well-formed segment
// header carrying the expected index.
func validHeader(data []byte, index uint64) bool {
	if len(data) < headerSize {
		return false
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return false
	}
	if binary.LittleEndian.Uint32(data[8:]) != version {
		return false
	}
	if binary.LittleEndian.Uint64(data[12:]) != index {
		return false
	}
	return binary.LittleEndian.Uint32(data[20:]) == crc32.Checksum(data[:20], castagnoli)
}

// checkFrame validates the record frame at off. It returns the frame's
// total length and batch ID, or a non-empty reason describing why the
// frame is not intact.
func checkFrame(data []byte, off int64) (n int64, batch uint64, reason string) {
	rest := data[off:]
	if len(rest) < frameHeader {
		return 0, 0, "short frame header"
	}
	bodyLen := int64(binary.LittleEndian.Uint32(rest[4:]))
	if bodyLen > maxBodyBytes {
		return 0, 0, "implausible record length"
	}
	if int64(len(rest)) < frameHeader+bodyLen {
		return 0, 0, "record extends past end of segment"
	}
	frame := rest[:frameHeader+bodyLen]
	if binary.LittleEndian.Uint32(frame) != crc32.Checksum(frame[4:], castagnoli) {
		return 0, 0, "record CRC mismatch"
	}
	kind, batch, _, reason := decodeBody(frame[frameHeader:])
	if reason != "" {
		return 0, 0, reason
	}
	if kind != Insert && kind != Delete {
		return 0, 0, fmt.Sprintf("unknown record kind %d", kind)
	}
	return frameHeader + bodyLen, batch, ""
}

// decodeBody splits a CRC-verified record body into its fields.
func decodeBody(body []byte) (kind Kind, batch uint64, payload []byte, reason string) {
	if len(body) < 1 {
		return 0, 0, nil, "empty record body"
	}
	kind = Kind(body[0])
	rest := body[1:]
	batch, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, nil, "bad batch varint"
	}
	rest = rest[n:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, nil, "bad payload-length varint"
	}
	rest = rest[n:]
	if uint64(len(rest)) != plen {
		return 0, 0, nil, "payload length disagrees with record length"
	}
	return kind, batch, rest, ""
}

// truncateFile cuts path to size and syncs the result, so the discarded
// tail cannot resurrect after a crash.
func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return nil
}

// Replay streams every surviving record to fn in append order: segments
// ascending, records front to back within each. Open already truncated
// any torn tail, so every frame Replay meets must be intact; damage at
// this point (or an undecodable N-Triples payload behind a valid CRC)
// is a *CorruptError, never a panic. A non-nil error from fn aborts the
// replay and is returned as-is.
//
// Call Replay before the first Append: it reads the segment files the
// writer is appending to.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := make([]segment, len(l.segments))
	copy(segs, l.segments)
	l.mu.Unlock()
	for _, seg := range segs {
		if err := replaySegment(l.segmentPath(seg.index), seg.index, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, index uint64, fn func(Record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if !validHeader(data, index) {
		return &CorruptError{Segment: path, Offset: 0, Reason: "bad segment header"}
	}
	off := int64(headerSize)
	for off < int64(len(data)) {
		n, _, reason := checkFrame(data, off)
		if reason != "" {
			return &CorruptError{Segment: path, Offset: off, Reason: reason}
		}
		kind, batch, payload, _ := decodeBody(data[off+frameHeader : off+n])
		ts, perr := rdf.ParseAll(bytes.NewReader(payload))
		if perr != nil {
			return &CorruptError{Segment: path, Offset: off, Reason: fmt.Sprintf("payload: %v", perr)}
		}
		if err := fn(Record{Kind: kind, Batch: batch, Triples: ts}); err != nil {
			return err
		}
		off += n
	}
	return nil
}
