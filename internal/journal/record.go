package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing on disk:
//
//	+----------------+----------------+==================+
//	| length (4B BE) | crc32c (4B BE) | payload (length) |
//	+----------------+----------------+==================+
//
// The checksum covers the length prefix and the payload, so a torn or
// bit-flipped frame is rejected even when the corruption lands in the
// header. Records are written strictly append-only; a record is the unit
// of atomicity the journal guarantees across crashes.

// recordHeaderSize is the fixed per-record framing overhead.
const recordHeaderSize = 8

// MaxRecordBytes bounds a single record's payload. Anything larger in a
// length prefix is treated as corruption rather than an allocation request,
// which keeps the decoder safe against garbage input.
const MaxRecordBytes = 16 << 20

// ErrCorrupt marks a frame that fails validation: a partial header, a
// length beyond MaxRecordBytes or the remaining file, or a checksum
// mismatch. On the final segment this is the signature of a torn tail and
// is repaired by truncation; anywhere else it is real corruption.
var ErrCorrupt = errors.New("journal: corrupt record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordCRC computes the frame checksum over the encoded length prefix and
// the payload.
func recordCRC(lenPrefix []byte, payload []byte) uint32 {
	crc := crc32.Update(0, crcTable, lenPrefix)
	return crc32.Update(crc, crcTable, payload)
}

// recordSize returns the on-disk size of a record with the given payload.
func recordSize(payload []byte) int64 {
	return int64(recordHeaderSize + len(payload))
}

// recordHeader returns payload's frame header: its length and checksum.
func recordHeader(payload []byte) (hdr [recordHeaderSize]byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], recordCRC(hdr[0:4], payload))
	return hdr
}

// appendRecord frames payload onto dst and returns the extended slice. The
// caller has checked the payload against MaxRecordBytes.
func appendRecord(dst, payload []byte) []byte {
	hdr := recordHeader(payload)
	return append(append(dst, hdr[:]...), payload...)
}

// readRecord decodes one frame from r, into buf's memory when that is large
// enough (the payload then aliases buf; pass nil for a payload of its own).
// It returns io.EOF exactly at a clean record boundary, ErrCorrupt (possibly
// wrapped) for any torn or invalid frame, and the payload otherwise. It
// never panics on arbitrary input and never allocates more than
// MaxRecordBytes.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [recordHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: partial header: %v", ErrCorrupt, err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length > MaxRecordBytes {
		return nil, fmt.Errorf("%w: implausible length %d", ErrCorrupt, length)
	}
	if uint32(cap(buf)) < length {
		buf = make([]byte, length)
	}
	payload := buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: partial payload: %v", ErrCorrupt, err)
	}
	if want, got := binary.BigEndian.Uint32(hdr[4:8]), recordCRC(hdr[0:4], payload); want != got {
		return nil, fmt.Errorf("%w: checksum mismatch (want %08x, got %08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}
