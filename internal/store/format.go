package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MTS1: the durable result store's on-disk segment container. A segment
// is an append-only sequence of length-framed, CRC-checksummed records,
// each keyed by the 32-byte content address the serving tier already
// uses (the rescache SHA-256 cell key):
//
//	magic   4 bytes "MTS1"
//	frame, repeated:
//	    kind    1 byte: 'R' record, 'E' seal footer
//	    body    kind-specific (below)
//	    crc     4 bytes little-endian, IEEE CRC32 of kind+body
//
//	'R' body: key 32 bytes, plen uvarint, payload plen bytes
//	'E' body: records uvarint, payloadBytes uvarint
//
// A live (unsealed) segment carries only 'R' frames; sealing appends the
// 'E' footer — whose counts cross-check everything decoded before it —
// fsyncs, and atomically renames the file from its .open name to its
// final .mts name. The discipline mirrors the MTT2 trace container: the
// mandatory footer makes truncation of a sealed segment detectable even
// at a clean frame boundary, and the per-frame CRC (which covers the
// kind byte and the length varint, not just the payload) makes any byte
// damage detectable even when the varint stream still happens to parse.
const (
	frameRecord = byte('R')
	frameSeal   = byte('E')

	// maxPayload bounds one record's payload so a corrupt length prefix
	// cannot demand an absurd allocation before decoding can fail.
	maxPayload = 1 << 28
)

var magic = [4]byte{'M', 'T', 'S', '1'}

// KeySize is the content-address width: SHA-256, the same bytes the
// serving tier's rescache keys carry.
const KeySize = 32

// Key is the 32-byte content address of one stored record.
type Key [KeySize]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// ErrChecksum marks a frame whose stored CRC32 does not match its bytes:
// the record was damaged between writer and reader.
var ErrChecksum = errors.New("checksum mismatch")

// ErrTruncated marks a segment that ended mid-frame. For a live segment
// this is the expected signature of a crashed writer (the torn tail is
// dropped); for a sealed segment it is corruption. It wraps
// io.ErrUnexpectedEOF so either sentinel matches with errors.Is.
var ErrTruncated = fmt.Errorf("truncated segment: %w", io.ErrUnexpectedEOF)

// CorruptError is the typed error every segment decode failure is
// reported through: callers distinguish damaged segments from I/O
// plumbing errors with errors.As, and get the byte offset at which the
// damage was detected. The store never propagates a CorruptError to a
// Get caller — damaged segments are quarantined and the lookup becomes a
// miss — but recovery and the fault-matrix tests see it.
type CorruptError struct {
	// Path names the segment file ("" when scanning a bare stream).
	Path string
	// Offset is the byte offset into the segment at which the problem
	// was detected.
	Offset int64
	// Record is the index of the frame being decoded when the damage
	// surfaced (0-based).
	Record int
	// Err is the underlying cause: ErrChecksum, ErrTruncated, a plain
	// description, or an error from the underlying reader.
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	path := e.Path
	if path == "" {
		path = "segment"
	}
	return fmt.Sprintf("store: corrupt %s at byte %d (record %d): %v", path, e.Offset, e.Record, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *CorruptError) Unwrap() error { return e.Err }

func corruptf(off int64, rec int, format string, args ...any) *CorruptError {
	return &CorruptError{Offset: off, Record: rec, Err: fmt.Errorf(format, args...)}
}

// corruptRead wraps a read failure: EOF mid-frame is truncation, every
// other error passes through so callers can still reach the root cause
// (e.g. an injected I/O fault) via errors.Is.
func corruptRead(off int64, rec int, err error) *CorruptError {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = ErrTruncated
	}
	return &CorruptError{Offset: off, Record: rec, Err: err}
}

// appendRecordFrame renders one 'R' frame (kind, key, length, payload,
// CRC) into buf and returns the extended slice.
func appendRecordFrame(buf []byte, key Key, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, frameRecord)
	buf = append(buf, key[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// appendSealFrame renders the 'E' footer for a segment holding records
// frames totalling payloadBytes of payload.
func appendSealFrame(buf []byte, records, payloadBytes uint64) []byte {
	start := len(buf)
	buf = append(buf, frameSeal)
	buf = binary.AppendUvarint(buf, records)
	buf = binary.AppendUvarint(buf, payloadBytes)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// entry locates one live record inside a segment.
type entry struct {
	key Key
	// off is the byte offset of the record's frame (the kind byte).
	off int64
	// frameLen is the full frame length including kind, key, length
	// varint, payload and CRC.
	frameLen int64
	// payloadLen is the payload length alone.
	payloadLen int
}

// countingReader tracks the stream offset for error reporting.
//
//mtlint:guard external -- one per scan: scanSegment makes it and reads through it on its caller's goroutine
type countingReader struct {
	r   io.Reader
	off int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.off += int64(n)
	return n, err
}

func (cr *countingReader) readFull(p []byte) error {
	_, err := io.ReadFull(cr, p)
	return err
}

// readUvarint decodes a uvarint byte-by-byte so the offset stays exact.
func (cr *countingReader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	var b [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if err := cr.readFull(b[:]); err != nil {
			return 0, err
		}
		if b[0] < 0x80 {
			if i == binary.MaxVarintLen64-1 && b[0] > 1 {
				return 0, errors.New("uvarint overflows 64 bits")
			}
			return x | uint64(b[0])<<s, nil
		}
		x |= uint64(b[0]&0x7f) << s
		s += 7
	}
	return 0, errors.New("uvarint longer than 10 bytes")
}

// scanResult is what scanning one segment stream yields.
type scanResult struct {
	entries []entry
	// sealed reports that a valid 'E' footer closed the stream.
	sealed bool
	// validBytes is the offset just past the last fully-decoded frame —
	// the truncation point recovery uses to drop a live segment's torn
	// tail.
	validBytes int64
	// payloadBytes totals the record payload bytes decoded.
	payloadBytes uint64
}

// scanSegment decodes one segment byte stream. For a sealed segment
// (sealedWanted) the stream must close with a valid footer whose counts
// match and nothing may follow it; any anomaly — checksum mismatch,
// truncation, trailing bytes, implausible structure — is a
// *CorruptError. For a live segment a clean EOF at a frame boundary is
// normal, a torn tail is reported as a *CorruptError wrapping
// ErrTruncated with validBytes marking the recovery truncation point,
// and everything else is damage.
func scanSegment(r io.Reader, sealedWanted bool) (scanResult, error) {
	cr := &countingReader{r: r}
	var res scanResult

	var m [4]byte
	if err := cr.readFull(m[:]); err != nil {
		return res, corruptRead(cr.off, 0, err)
	}
	if m != magic {
		return res, corruptf(0, 0, "bad magic %q", m[:])
	}
	res.validBytes = cr.off

	crcBuf := make([]byte, 0, 256)
	for rec := 0; ; rec++ {
		var kind [1]byte
		if err := cr.readFull(kind[:]); err != nil {
			if errors.Is(err, io.EOF) && cr.off == res.validBytes {
				// Clean EOF at a frame boundary: the unsealed end of a live
				// segment. A sealed segment must not end here.
				if sealedWanted {
					return res, corruptf(cr.off, rec, "sealed segment has no footer: %w", ErrTruncated)
				}
				return res, nil
			}
			return res, corruptRead(cr.off, rec, err)
		}
		frameOff := cr.off - 1
		crcBuf = append(crcBuf[:0], kind[0])

		switch kind[0] {
		case frameRecord:
			var key Key
			if err := cr.readFull(key[:]); err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			crcBuf = append(crcBuf, key[:]...)
			plen, err := cr.readUvarint()
			if err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			if plen > maxPayload {
				return res, corruptf(cr.off, rec, "implausible payload length %d", plen)
			}
			crcBuf = binary.AppendUvarint(crcBuf, plen)
			payloadStart := len(crcBuf)
			crcBuf = append(crcBuf, make([]byte, plen)...)
			if err := cr.readFull(crcBuf[payloadStart:]); err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			var crc [4]byte
			if err := cr.readFull(crc[:]); err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			if got, want := crc32.ChecksumIEEE(crcBuf), binary.LittleEndian.Uint32(crc[:]); got != want {
				return res, &CorruptError{Offset: frameOff, Record: rec,
					Err: fmt.Errorf("%w (stored %#x, computed %#x)", ErrChecksum, want, got)}
			}
			res.entries = append(res.entries, entry{
				key:        key,
				off:        frameOff,
				frameLen:   cr.off - frameOff,
				payloadLen: int(plen),
			})
			res.payloadBytes += plen
			res.validBytes = cr.off

		case frameSeal:
			records, err := cr.readUvarint()
			if err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			payloadBytes, err := cr.readUvarint()
			if err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			crcBuf = binary.AppendUvarint(crcBuf, records)
			crcBuf = binary.AppendUvarint(crcBuf, payloadBytes)
			var crc [4]byte
			if err := cr.readFull(crc[:]); err != nil {
				return res, corruptRead(cr.off, rec, err)
			}
			if got, want := crc32.ChecksumIEEE(crcBuf), binary.LittleEndian.Uint32(crc[:]); got != want {
				return res, &CorruptError{Offset: frameOff, Record: rec,
					Err: fmt.Errorf("footer %w (stored %#x, computed %#x)", ErrChecksum, want, got)}
			}
			if records != uint64(len(res.entries)) || payloadBytes != res.payloadBytes {
				return res, corruptf(frameOff, rec,
					"footer records %d frames / %d payload bytes, segment carried %d / %d",
					records, payloadBytes, len(res.entries), res.payloadBytes)
			}
			// Nothing may follow the footer.
			var trail [1]byte
			if err := cr.readFull(trail[:]); !errors.Is(err, io.EOF) {
				if err != nil {
					return res, corruptRead(cr.off, rec, err)
				}
				return res, corruptf(cr.off, rec, "trailing bytes after seal footer")
			}
			res.sealed = true
			res.validBytes = cr.off
			return res, nil

		default:
			return res, corruptf(frameOff, rec, "unknown frame kind %#x", kind[0])
		}
	}
}

// readRecordPayload re-reads and re-verifies one record frame at a known
// location (ReaderAt + entry) and returns its payload. Every Get goes
// through this check: a record is CRC-verified on every read, never just
// at recovery, so damage that appears after startup is still caught
// before a byte of it is served.
func readRecordPayload(r io.ReaderAt, e entry) ([]byte, error) {
	frame := make([]byte, e.frameLen)
	if _, err := r.ReadAt(frame, e.off); err != nil {
		return nil, corruptRead(e.off, 0, err)
	}
	if frame[0] != frameRecord {
		return nil, corruptf(e.off, 0, "frame kind %#x, want record", frame[0])
	}
	stored := binary.LittleEndian.Uint32(frame[e.frameLen-4:])
	if got := crc32.ChecksumIEEE(frame[:e.frameLen-4]); got != stored {
		return nil, &CorruptError{Offset: e.off,
			Err: fmt.Errorf("%w (stored %#x, computed %#x)", ErrChecksum, stored, got)}
	}
	var key Key
	copy(key[:], frame[1:1+KeySize])
	if key != e.key {
		return nil, corruptf(e.off, 0, "record key %s does not match index key %s", key, e.key)
	}
	plen, n := binary.Uvarint(frame[1+KeySize:])
	if n <= 0 || plen != uint64(e.payloadLen) {
		return nil, corruptf(e.off, 0, "record length %d does not match index length %d", plen, e.payloadLen)
	}
	start := 1 + KeySize + n
	return frame[start : start+int(plen)], nil
}
