package trace

import (
	"errors"
	"fmt"
	"io"
)

// ErrChecksum marks a section whose stored CRC32 does not match its
// payload: the bytes were damaged between writer and reader.
var ErrChecksum = errors.New("checksum mismatch")

// ErrTruncated marks a stream that ended before the format said it would:
// a partial download, a crashed writer, a chopped file. It wraps
// io.ErrUnexpectedEOF so either sentinel matches with errors.Is.
var ErrTruncated = fmt.Errorf("truncated stream: %w", io.ErrUnexpectedEOF)

// CorruptError is the typed error every trace decode failure is reported
// through: callers distinguish corrupt input from I/O plumbing errors with
// errors.As instead of string matching, and get the byte offset at which
// the damage was detected.
type CorruptError struct {
	// Offset is the byte offset into the stream at which the problem was
	// detected (the reader's position, not necessarily where the damage
	// physically is).
	Offset int64
	// Format is the container being decoded ("MTT2", or "" when the
	// magic itself was unreadable, unknown or retired).
	Format string
	// Section names the structural element being decoded when the
	// corruption surfaced ("magic", "header", "thread 3", "end").
	Section string
	// Err is the underlying cause: ErrChecksum, ErrTruncated, a plain
	// description, or an error from the underlying reader.
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	format := e.Format
	if format == "" {
		format = "trace"
	}
	return fmt.Sprintf("trace: corrupt %s stream at byte %d (%s): %v", format, e.Offset, e.Section, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *CorruptError) Unwrap() error { return e.Err }

// corruptf builds a CorruptError with a formatted cause.
func corruptf(format string, off int64, section, causeFormat string, args ...any) *CorruptError {
	return &CorruptError{
		Offset:  off,
		Format:  format,
		Section: section,
		Err:     fmt.Errorf(causeFormat, args...),
	}
}

// corruptRead wraps a read failure: EOF mid-structure is truncation, and
// every other error is passed through so callers can still reach the root
// cause (e.g. an injected I/O fault) via errors.Is.
func corruptRead(format string, off int64, section string, err error) *CorruptError {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = ErrTruncated
	}
	return &CorruptError{Offset: off, Format: format, Section: section, Err: err}
}
