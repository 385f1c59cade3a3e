package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// The binary trace container is MTT2 (io2.go): framed, checksummed
// sections around one per-event encoding (a gap/kind uvarint followed by
// a zig-zag address-delta uvarint, so the strided access patterns the
// kernels produce compress well). WriteTo emits it and ReadFrom reads
// it. The older MTT1 container had no framing or checksums — truncation
// at a thread boundary or a bit flip in the varint payload could decode
// to a different but valid trace — and is no longer read: ReadFrom
// refuses its magic.

var magic2 = [4]byte{'M', 'T', 'T', '2'}

const (
	formatMTT2 = "MTT2"

	// maxName and maxThreads bound header fields so a corrupt count
	// cannot demand an absurd allocation.
	maxName    = 1 << 12
	maxThreads = 1 << 16
)

// countingReader is a buffered reader that tracks the stream offset
// consumed, so decode errors can report where the damage was detected.
type countingReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.off += int64(n)
	return n, err
}

// appendEvent appends one packed event in the shared per-event encoding,
// returning the extended buffer and the event's address (the next delta
// base).
func appendEvent(buf []byte, w uint64, prev uint64) ([]byte, uint64) {
	e := Unpack(w)
	gk := uint64(e.Gap) << 1
	if e.Kind == Write {
		gk |= 1
	}
	buf = binary.AppendUvarint(buf, gk)
	delta := int64(e.Addr) - int64(prev)
	buf = binary.AppendUvarint(buf, uint64(delta<<1)^uint64(delta>>63))
	return buf, e.Addr
}

// WriteTo serializes the trace in the current (MTT2) binary format.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	return tr.writeMTT2To(w)
}

// ReadFrom parses an MTT2 trace. Every decode failure — an unknown or
// retired magic, truncation, checksum mismatch, structural damage — is
// reported as a *CorruptError carrying the byte offset; callers test
// with errors.As instead of string matching.
func ReadFrom(r io.Reader) (*Trace, error) {
	cr := &countingReader{br: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(cr, m[:]); err != nil {
		return nil, corruptRead("", cr.off, "magic", err)
	}
	switch m {
	case magic2:
		return readMTT2(cr)
	case [4]byte{'M', 'T', 'T', '1'}:
		return nil, corruptf("", 0, "magic", "MTT1 is a retired format; re-record the trace as MTT2")
	default:
		return nil, corruptf("", 0, "magic", "bad magic %q", m)
	}
}

// decodeEvent validates and packs one event from its wire fields. It
// returns a non-empty description on out-of-range values; prev is updated
// to the decoded address.
func decodeEvent(gk, zz uint64, prev *uint64) (uint64, string) {
	gap := gk >> 1
	if gap > uint64(MaxGap) {
		return 0, "gap out of range"
	}
	delta := int64(zz>>1) ^ -int64(zz&1)
	addr := uint64(int64(*prev) + delta)
	if addr > MaxAddr {
		return 0, "address out of range"
	}
	if addr%WordSize != 0 {
		return 0, "address not word-aligned"
	}
	*prev = addr
	k := Read
	if gk&1 != 0 {
		k = Write
	}
	return Pack(Event{Gap: uint32(gap), Kind: k, Addr: addr}), ""
}
