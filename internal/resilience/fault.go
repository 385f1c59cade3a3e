// Package resilience is the simulator's robustness layer: deterministic
// I/O fault injection for proving the trace pipeline detects corruption
// (fault.go), a crash-safe journal of completed sweep sections behind
// cmd/experiments' -resume (journal.go), and the engine guard that runs
// every sweep and service cell under a shared watchdog (guard.go).
//
// Nothing here sits on a simulation hot path: faults are injected at I/O
// boundaries, the journal is touched once per sweep section, and the
// guard adds one counter increment per cell.
package resilience

import (
	"errors"
	"fmt"
	"io"
)

// FaultClass enumerates the injectable I/O fault classes. Each models a
// real failure the pipeline must survive loudly: flipped bits (disk or
// transfer damage), truncation (crashed writer, partial copy), duplicated
// ranges (retried writes, bad splices), fragmented short reads (which are
// legal and must be harmless), and delayed hard errors (a device failing
// mid-stream).
type FaultClass int

const (
	// BitFlip XORs one bit at Offset.
	BitFlip FaultClass = iota
	// Truncate ends the stream cleanly after Offset bytes.
	Truncate
	// DupRead re-delivers Count already-delivered bytes at Offset
	// (duplicated range).
	DupRead
	// ShortRead fragments delivery into single-byte reads from Offset on.
	// It corrupts nothing: a correct reader must produce identical
	// results, which the fault matrix asserts.
	ShortRead
	// ErrAfter fails hard with ErrInjected after Offset bytes.
	ErrAfter
	// NumFaultClasses is the number of fault classes.
	NumFaultClasses
)

// String names the fault class.
func (c FaultClass) String() string {
	switch c {
	case BitFlip:
		return "bit-flip"
	case Truncate:
		return "truncate"
	case DupRead:
		return "dup-read"
	case ShortRead:
		return "short-read"
	case ErrAfter:
		return "err-after"
	}
	return "unknown"
}

// Corrupts reports whether the class damages stream contents (as opposed
// to fragmenting delivery, which is legal io.Reader behavior).
func (c FaultClass) Corrupts() bool { return c != ShortRead }

// ErrInjected is the root cause carried by ErrAfter faults; it survives
// wrapping, so tests assert errors.Is(err, ErrInjected) through the
// trace layer's CorruptError chain.
var ErrInjected = errors.New("resilience: injected I/O fault")

// Fault describes one deterministic fault.
type Fault struct {
	// Class selects the corruption mechanism.
	Class FaultClass
	// Offset is the byte offset at which the fault engages.
	Offset int64
	// Bit selects the bit to flip for BitFlip (0-7).
	Bit uint8
	// Count is the number of duplicated bytes for DupRead (default 1).
	Count int64
}

// String renders the fault for test names and diagnostics.
func (f Fault) String() string {
	switch f.Class {
	case BitFlip:
		return fmt.Sprintf("bit-flip@%d.%d", f.Offset, f.Bit)
	case DupRead:
		return fmt.Sprintf("dup-read@%d+%d", f.Offset, f.dupCount())
	default:
		return fmt.Sprintf("%s@%d", f.Class, f.Offset)
	}
}

func (f Fault) dupCount() int64 {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// FaultingReader wraps an io.Reader and applies one Fault to the byte
// stream it delivers. The corruption is a pure function of (stream,
// fault): re-reading with the same fault yields the same damaged bytes,
// so every fault-matrix case is reproducible from its seed.
type FaultingReader struct {
	r     io.Reader
	fault Fault
	off   int64 // bytes delivered so far
	// window holds the trailing delivered bytes DupRead may need to
	// replay; only maintained for DupRead faults.
	window []byte
	// dup is the pending duplicated range still to deliver.
	dup []byte
}

// NewFaultingReader wraps r with fault f.
func NewFaultingReader(r io.Reader, f Fault) *FaultingReader {
	return &FaultingReader{r: r, fault: f}
}

// Read implements io.Reader, applying the configured fault.
func (fr *FaultingReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	f := fr.fault
	switch f.Class {
	case Truncate:
		if fr.off >= f.Offset {
			return 0, io.EOF
		}
		if max := f.Offset - fr.off; int64(len(p)) > max {
			p = p[:max]
		}
	case ErrAfter:
		if fr.off >= f.Offset {
			return 0, ErrInjected
		}
		if max := f.Offset - fr.off; int64(len(p)) > max {
			p = p[:max]
		}
	case ShortRead:
		if fr.off >= f.Offset {
			p = p[:1]
		}
	case DupRead:
		if len(fr.dup) > 0 {
			n := copy(p, fr.dup)
			fr.dup = fr.dup[n:]
			fr.off += int64(n)
			return n, nil
		}
		if max := f.Offset - fr.off; max > 0 && int64(len(p)) > max {
			// Stop exactly at the duplication point.
			p = p[:max]
		}
	}

	n, err := fr.r.Read(p)
	if n > 0 {
		switch f.Class {
		case BitFlip:
			if i := f.Offset - fr.off; i >= 0 && i < int64(n) {
				p[i] ^= 1 << (f.Bit & 7)
			}
		case DupRead:
			fr.window = append(fr.window, p[:n]...)
			if keep := f.dupCount(); int64(len(fr.window)) > keep {
				fr.window = fr.window[int64(len(fr.window))-keep:]
			}
			if fr.off < f.Offset && fr.off+int64(n) >= f.Offset {
				// The next delivery replays the trailing window.
				fr.dup = append([]byte(nil), fr.window...)
			}
		}
		fr.off += int64(n)
	}
	return n, err
}

// FaultingWriter wraps an io.Writer and applies one Fault to the byte
// stream written through it. Truncate silently discards everything past
// Offset (a crashed writer); ErrAfter fails the write call that crosses
// Offset; BitFlip damages the byte at Offset in transit. ShortRead and
// DupRead are read-side classes and are inert on the write path.
type FaultingWriter struct {
	w     io.Writer
	fault Fault
	off   int64
}

// NewFaultingWriter wraps w with fault f.
func NewFaultingWriter(w io.Writer, f Fault) *FaultingWriter {
	return &FaultingWriter{w: w, fault: f}
}

// Write implements io.Writer, applying the configured fault.
func (fw *FaultingWriter) Write(p []byte) (int, error) {
	f := fw.fault
	switch f.Class {
	case Truncate:
		if fw.off >= f.Offset {
			fw.off += int64(len(p))
			return len(p), nil // swallowed
		}
		if max := f.Offset - fw.off; int64(len(p)) > max {
			n, err := fw.w.Write(p[:max])
			fw.off += int64(n)
			if err != nil {
				return n, err
			}
			fw.off += int64(len(p)) - max
			return len(p), nil
		}
	case ErrAfter:
		if fw.off+int64(len(p)) > f.Offset {
			return 0, ErrInjected
		}
	case BitFlip:
		if i := f.Offset - fw.off; i >= 0 && i < int64(len(p)) {
			cp := append([]byte(nil), p...)
			cp[i] ^= 1 << (f.Bit & 7)
			p = cp
		}
	}
	n, err := fw.w.Write(p)
	fw.off += int64(n)
	return n, err
}
