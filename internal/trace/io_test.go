package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func traceEqual(a, b *Trace) bool {
	if a.App != b.App || len(a.Threads) != len(b.Threads) {
		return false
	}
	for i := range a.Threads {
		ta, tb := a.Threads[i], b.Threads[i]
		if ta.ID != tb.ID || ta.Refs() != tb.Refs() {
			return false
		}
		for j := 0; j < ta.Refs(); j++ {
			if ta.Event(j) != tb.Event(j) {
				return false
			}
		}
	}
	return true
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		tr := randomTrace(rng, "app", 1+rng.Intn(6), 1+rng.Intn(500))
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got := buf.Bytes()[:4]; !bytes.Equal(got, magic2[:]) {
			t.Fatalf("WriteTo emitted magic %q, want MTT2", got)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !traceEqual(tr, got) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

// TestReadRejectsMTT1: the retired unchecksummed container is refused
// at its magic with a typed error that names it, however well-formed
// the rest of the stream is.
func TestReadRejectsMTT1(t *testing.T) {
	// A structurally valid MTT1 trace: app "seed", one thread, one read
	// of address 0.
	for _, in := range []string{"MTT1", "MTT1\x04seed\x01\x00\x01\x00\x00"} {
		got, err := ReadFrom(strings.NewReader(in))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%q: got %v, want *CorruptError", in, err)
		}
		if got != nil {
			t.Errorf("%q: error return carried a trace", in)
		}
		if ce.Section != "magic" || !strings.Contains(err.Error(), "MTT1") {
			t.Errorf("%q: error %q does not name the retired MTT1 magic", in, err)
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := ReadFrom(strings.NewReader("NOPE-not-a-trace"))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bad magic: got %v, want *CorruptError", err)
	}
	if ce.Section != "magic" {
		t.Errorf("section = %q, want magic", ce.Section)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	for name, write := range map[string]func(*Trace, io.Writer) (int64, error){
		"MTT2": (*Trace).WriteTo,
	} {
		t.Run(name, func(t *testing.T) {
			tr := randomTrace(rand.New(rand.NewSource(2)), "app", 3, 200)
			var buf bytes.Buffer
			if _, err := write(tr, &buf); err != nil {
				t.Fatal(err)
			}
			full := buf.Bytes()
			// Truncate at every single byte position: every strict prefix
			// must fail cleanly, as a typed truncation error.
			for n := 0; n < len(full); n++ {
				_, err := ReadFrom(bytes.NewReader(full[:n]))
				if err == nil {
					t.Fatalf("truncated at %d/%d bytes: accepted", n, len(full))
				}
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("truncated at %d: got %v, want *CorruptError", n, err)
				}
			}
		})
	}
}

// TestMTT2RejectsEveryByteFlip is the core zero-silent-corruption
// property: under MTT2, flipping any single byte anywhere in the stream
// is detected. (The retired MTT1 container could not promise this —
// payload flips could decode to a different but valid trace.)
func TestMTT2RejectsEveryByteFlip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), "app", 2, 50)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			cp := append([]byte(nil), full...)
			cp[i] ^= mask
			got, err := ReadFrom(bytes.NewReader(cp))
			if err == nil {
				t.Fatalf("byte %d ^ %#x: corrupted stream accepted (decoded %d refs)",
					i, mask, got.TotalRefs())
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("byte %d ^ %#x: got %v, want *CorruptError", i, mask, err)
			}
		}
	}
}

// TestMTT2ChecksumError checks that a payload flip surfaces as
// ErrChecksum with a plausible offset.
func TestMTT2ChecksumError(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)), "app", 2, 50)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit in the middle of the stream: deep inside a thread
	// payload, so the CRC is what catches it.
	cp := append([]byte(nil), full...)
	cp[len(cp)/2] ^= 0x10
	_, err := ReadFrom(bytes.NewReader(cp))
	if err == nil {
		t.Fatal("payload bit flip accepted")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("cause = %v, want ErrChecksum", ce.Err)
	}
	if ce.Offset <= 0 || ce.Offset > int64(len(full)) {
		t.Errorf("offset %d outside stream of %d bytes", ce.Offset, len(full))
	}
}

// TestMTT2RejectsMissingEnd proves that dropping whole trailing sections
// (clean truncation at a frame boundary) is still detected — the hole the
// end section exists to close.
func TestMTT2RejectsMissingEnd(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(8)), "app", 2, 30)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The end section payload is 2 small uvarints: frame is 1 (kind) + 1
	// (len) + 2 (payload) + 4 (crc) = 8 bytes.
	chopped := full[:len(full)-8]
	_, err := ReadFrom(bytes.NewReader(chopped))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing end section: got %v, want ErrTruncated", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Error("ErrTruncated should match io.ErrUnexpectedEOF via errors.Is")
	}
}

// TestMTT2RejectsBadEndCounts crafts an end section whose CRC is valid
// but whose totals disagree with the decoded stream.
func TestMTT2RejectsBadEndCounts(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(9)), "app", 2, 30)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	body := full[:len(full)-8] // strip the genuine end frame
	payload := binary.AppendUvarint(nil, uint64(len(tr.Threads)))
	payload = binary.AppendUvarint(payload, uint64(tr.TotalRefs()+1)) // lie
	frame := append([]byte{sectionEnd}, binary.AppendUvarint(nil, uint64(len(payload)))...)
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	_, err := ReadFrom(bytes.NewReader(append(body, frame...)))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("lying end section: got %v, want *CorruptError", err)
	}
	if ce.Section != "end" {
		t.Errorf("section = %q, want end", ce.Section)
	}
}

func TestReadRejectsImplausibleCounts(t *testing.T) {
	// An empty app name in an MTT2 header section with a valid CRC.
	payload := []byte{0} // appLen 0
	var buf bytes.Buffer
	buf.Write(magic2[:])
	buf.WriteByte(sectionHeader)
	buf.Write(binary.AppendUvarint(nil, uint64(len(payload))))
	buf.Write(payload)
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	var ce *CorruptError
	if _, err := ReadFrom(&buf); !errors.As(err, &ce) {
		t.Errorf("MTT2: empty app name: got %v, want *CorruptError", err)
	}

	// An implausible section length must fail before any giant allocation.
	buf.Reset()
	buf.Write(magic2[:])
	buf.WriteByte(sectionHeader)
	buf.Write(binary.AppendUvarint(nil, uint64(maxSection)+1))
	if _, err := ReadFrom(&buf); !errors.As(err, &ce) {
		t.Errorf("MTT2: huge section length: got %v, want *CorruptError", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.mtt")
	tr := randomTrace(rand.New(rand.NewSource(10)), "app", 2, 100)
	if _, err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(tr, got) {
		t.Fatal("WriteFile/ReadFile round trip mismatch")
	}

	// Overwrite with a second trace: reads must see either old or new,
	// and no temp files may linger.
	tr2 := randomTrace(rand.New(rand.NewSource(12)), "app2", 3, 80)
	if _, err := tr2.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(tr2, got) {
		t.Fatal("overwrite did not take effect")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".mtt-tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}

	// A failed write (unwritable directory path) must not clobber the
	// existing file.
	if _, err := tr.WriteFile(filepath.Join(dir, "missing-subdir", "x.mtt")); err == nil {
		t.Error("WriteFile into missing directory succeeded")
	}
}

func BenchmarkWriteTo(b *testing.B) {
	tr := randomTrace(rand.New(rand.NewSource(5)), "bench", 8, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrom(b *testing.B) {
	tr := randomTrace(rand.New(rand.NewSource(6)), "bench", 8, 10000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrom(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
