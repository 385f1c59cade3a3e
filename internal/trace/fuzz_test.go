package trace

import (
	"bytes"
	"testing"
)

// FuzzReadFrom feeds arbitrary bytes to the binary trace reader: it must
// never panic and never return a partially-decoded or invalid trace
// without an error.
func FuzzReadFrom(f *testing.F) {
	// Seed with a valid trace plus mutations. The retired MTT1 magic, here
	// and in the corpus, feeds the rejection path.
	tr := New("seed", 2)
	for i := 0; i < 2; i++ {
		r := NewRecorder(tr, i)
		r.Compute(5)
		r.Load(SharedBase + uint64(i)*8)
		r.Store(8)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid2 := append([]byte(nil), buf.Bytes()...)
	// The same stream under the retired MTT1 magic must be refused.
	valid1 := append([]byte("MTT1"), valid2[4:]...)
	for _, valid := range [][]byte{valid1, valid2} {
		f.Add(valid)
		truncated := append([]byte(nil), valid[:len(valid)/2]...)
		f.Add(truncated)
		flipped := append([]byte(nil), valid...)
		flipped[6] ^= 0xff
		f.Add(flipped)
		flipped = append([]byte(nil), valid...)
		flipped[len(flipped)-2] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("MTT1"))
	f.Add([]byte("MTT2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("error return carried a partially-decoded trace")
			}
			return // rejection is fine; panics are not
		}
		// Anything accepted must be a complete, internally consistent
		// trace…
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		// …sound enough to re-serialize and read back identically.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadFrom(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if !traceEqual(got, back) {
			t.Fatal("round trip of accepted trace changed it")
		}
	})
}

// FuzzPackUnpack checks the event codec over arbitrary field values.
func FuzzPackUnpack(f *testing.F) {
	f.Add(uint32(0), false, uint64(0))
	f.Add(uint32(MaxGap), true, uint64(MaxAddr))
	f.Fuzz(func(t *testing.T, gap uint32, write bool, addr uint64) {
		e := Event{Gap: gap % (MaxGap + 1), Addr: addr % (MaxAddr + 1)}
		if write {
			e.Kind = Write
		}
		if got := Unpack(Pack(e)); got != e {
			t.Fatalf("round trip %+v -> %+v", e, got)
		}
	})
}
