package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// MTT2: the current on-disk container. Section-framed, length-prefixed,
// CRC32-checksummed:
//
//	magic   4 bytes "MTT2"
//	section, repeated:
//	    kind    1 byte: 'H' header, 'T' thread, 'E' end
//	    len     uvarint, payload length in bytes
//	    payload len bytes
//	    crc     4 bytes little-endian, IEEE CRC32 of payload
//
//	header payload: appLen uvarint, app bytes, nthreads uvarint
//	thread payload: id uvarint, nrefs uvarint, nrefs × per-event encoding
//	end payload:    nthreads uvarint, totalRefs uvarint
//
// Sections must appear as one H, then exactly nthreads T in id order,
// then one E whose counts cross-check what was decoded. The mandatory end
// section makes truncation detectable even at a clean section boundary;
// the per-section CRC makes byte damage (bit flips, duplicated or dropped
// ranges) detectable even when the varint stream still happens to parse.
const (
	sectionHeader = byte('H')
	sectionThread = byte('T')
	sectionEnd    = byte('E')

	// maxSection bounds a section payload so a corrupt length prefix
	// cannot demand an absurd allocation before decoding can fail.
	maxSection = 1 << 28
)

func threadSection(i int) string { return "thread " + strconv.Itoa(i) }

// writeMTT2To serializes the trace in the MTT2 container.
func (tr *Trace) writeMTT2To(w io.Writer) (int64, error) {
	var n int64
	writeSection := func(kind byte, payload []byte) error {
		var hdr [1 + binary.MaxVarintLen64]byte
		hdr[0] = kind
		m := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
		if _, err := w.Write(hdr[:m]); err != nil {
			return err
		}
		n += int64(m)
		if _, err := w.Write(payload); err != nil {
			return err
		}
		n += int64(len(payload))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		if _, err := w.Write(crc[:]); err != nil {
			return err
		}
		n += 4
		return nil
	}

	if _, err := w.Write(magic2[:]); err != nil {
		return n, err
	}
	n += 4
	payload := binary.AppendUvarint(nil, uint64(len(tr.App)))
	payload = append(payload, tr.App...)
	payload = binary.AppendUvarint(payload, uint64(len(tr.Threads)))
	if err := writeSection(sectionHeader, payload); err != nil {
		return n, err
	}
	var total uint64
	for i, t := range tr.Threads {
		payload = binary.AppendUvarint(payload[:0], uint64(i))
		events := t.sealed()
		payload = binary.AppendUvarint(payload, uint64(len(events)))
		var prev uint64
		for _, wrd := range events {
			payload, prev = appendEvent(payload, wrd, prev)
		}
		total += uint64(len(events))
		if err := writeSection(sectionThread, payload); err != nil {
			return n, err
		}
	}
	payload = binary.AppendUvarint(payload[:0], uint64(len(tr.Threads)))
	payload = binary.AppendUvarint(payload, total)
	if err := writeSection(sectionEnd, payload); err != nil {
		return n, err
	}
	return n, nil
}

// section is one decoded MTT2 frame.
type section struct {
	kind    byte
	payload []byte
	// start is the stream offset of the first payload byte.
	start int64
}

// readSection decodes and CRC-verifies one frame.
func readSection(cr *countingReader, name string) (section, error) {
	var s section
	kind, err := cr.ReadByte()
	if err != nil {
		return s, corruptRead(formatMTT2, cr.off, name, err)
	}
	s.kind = kind
	length, err := binary.ReadUvarint(cr)
	if err != nil {
		return s, corruptRead(formatMTT2, cr.off, name, err)
	}
	if length > maxSection {
		return s, corruptf(formatMTT2, cr.off, name, "implausible section length %d", length)
	}
	s.start = cr.off
	s.payload, err = readPayload(cr, length)
	if err != nil {
		return s, corruptRead(formatMTT2, cr.off, name, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(cr, crc[:]); err != nil {
		return s, corruptRead(formatMTT2, cr.off, name, err)
	}
	if got, want := crc32.ChecksumIEEE(s.payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return s, &CorruptError{Offset: s.start, Format: formatMTT2, Section: name,
			Err: fmt.Errorf("%w (stored %#x, computed %#x)", ErrChecksum, want, got)}
	}
	return s, nil
}

// readPayload reads n bytes in bounded chunks, so a corrupt length prefix
// on a truncated stream fails fast instead of allocating the full claim.
func readPayload(cr *countingReader, n uint64) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		m := n - uint64(len(buf))
		if m > chunk {
			m = chunk
		}
		old := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(cr, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// sliceCursor walks a section payload, reporting stream offsets for
// errors.
type sliceCursor struct {
	data []byte
	pos  int
	base int64 // stream offset of data[0]
}

func (c *sliceCursor) off() int64 { return c.base + int64(c.pos) }

func (c *sliceCursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

// readMTT2 decodes the checksummed container (magic already consumed).
func readMTT2(cr *countingReader) (*Trace, error) {
	hdr, err := readSection(cr, "header")
	if err != nil {
		return nil, err
	}
	if hdr.kind != sectionHeader {
		return nil, corruptf(formatMTT2, hdr.start, "header", "unexpected section kind %q", hdr.kind)
	}
	hc := sliceCursor{data: hdr.payload, base: hdr.start}
	appLen, ok := hc.uvarint()
	if !ok {
		return nil, corruptf(formatMTT2, hc.off(), "header", "bad app name length varint")
	}
	if appLen == 0 || appLen > maxName || appLen > uint64(len(hdr.payload)-hc.pos) {
		return nil, corruptf(formatMTT2, hc.off(), "header", "implausible app name length %d", appLen)
	}
	name := string(hdr.payload[hc.pos : hc.pos+int(appLen)])
	hc.pos += int(appLen)
	nthreads, ok := hc.uvarint()
	if !ok {
		return nil, corruptf(formatMTT2, hc.off(), "header", "bad thread count varint")
	}
	if nthreads == 0 || nthreads > maxThreads {
		return nil, corruptf(formatMTT2, hc.off(), "header", "implausible thread count %d", nthreads)
	}
	if hc.pos != len(hdr.payload) {
		return nil, corruptf(formatMTT2, hc.off(), "header", "%d trailing payload bytes", len(hdr.payload)-hc.pos)
	}

	tr := New(name, int(nthreads))
	var total uint64
	for i := 0; i < int(nthreads); i++ {
		sname := threadSection(i)
		s, err := readSection(cr, sname)
		if err != nil {
			return nil, err
		}
		if s.kind != sectionThread {
			return nil, corruptf(formatMTT2, s.start, sname, "unexpected section kind %q (stream ends early?)", s.kind)
		}
		c := sliceCursor{data: s.payload, base: s.start}
		id, ok := c.uvarint()
		if !ok {
			return nil, corruptf(formatMTT2, c.off(), sname, "bad thread id varint")
		}
		if id != uint64(i) {
			return nil, corruptf(formatMTT2, c.off(), sname, "thread at index %d has id %d", i, id)
		}
		nrefs, ok := c.uvarint()
		if !ok {
			return nil, corruptf(formatMTT2, c.off(), sname, "bad ref count varint")
		}
		if nrefs == 0 {
			return nil, corruptf(formatMTT2, c.off(), sname, "thread has no references")
		}
		t := tr.Threads[i]
		var prev uint64
		for j := uint64(0); j < nrefs; j++ {
			gk, ok := c.uvarint()
			if !ok {
				return nil, corruptf(formatMTT2, c.off(), sname, "ref %d: bad gap varint", j)
			}
			zz, ok := c.uvarint()
			if !ok {
				return nil, corruptf(formatMTT2, c.off(), sname, "ref %d: bad addr varint", j)
			}
			w, cerr := decodeEvent(gk, zz, &prev)
			if cerr != "" {
				return nil, corruptf(formatMTT2, c.off(), sname, "ref %d: %s", j, cerr)
			}
			t.append(w)
		}
		if c.pos != len(s.payload) {
			return nil, corruptf(formatMTT2, c.off(), sname, "%d trailing payload bytes", len(s.payload)-c.pos)
		}
		total += nrefs
	}

	end, err := readSection(cr, "end")
	if err != nil {
		return nil, err
	}
	if end.kind != sectionEnd {
		return nil, corruptf(formatMTT2, end.start, "end", "unexpected section kind %q", end.kind)
	}
	ec := sliceCursor{data: end.payload, base: end.start}
	gotThreads, ok := ec.uvarint()
	if !ok {
		return nil, corruptf(formatMTT2, ec.off(), "end", "bad thread count varint")
	}
	gotRefs, ok := ec.uvarint()
	if !ok {
		return nil, corruptf(formatMTT2, ec.off(), "end", "bad ref total varint")
	}
	if gotThreads != nthreads || gotRefs != total {
		return nil, corruptf(formatMTT2, ec.off(), "end",
			"end section records %d threads / %d refs, stream carried %d / %d", gotThreads, gotRefs, nthreads, total)
	}
	tr.seal()
	return tr, nil
}

// WriteFile atomically writes the trace to path in the MTT2 format: the
// bytes go to a temporary file in the same directory, are synced to
// stable storage, and only then renamed over path. A crash or write error
// leaves either the previous file or no file — never a partial trace.
func (tr *Trace) WriteFile(path string) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".mtt-tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := tr.WriteTo(f)
	if err == nil {
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
		return n, err
	}
	return n, nil
}

// ReadFile reads a trace file in either container variant.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
