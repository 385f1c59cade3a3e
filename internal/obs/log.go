package obs

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Structured logging and CLI plumbing shared by the commands: every
// binary builds its logger here so diagnostics have one shape, and flag
// validation failures take one exit path (usage text + exit code 2)
// instead of each command improvising.

// NewLogger returns a slog text logger writing to w. Verbose enables
// debug-level records; timestamps are dropped (simulation output is
// deterministic, wall-clock noise in diagnostics is not useful).
func NewLogger(w io.Writer, verbose bool) *slog.Logger {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// Process exit codes shared by the commands: the conventional
// success/error/usage trio scripts driving long sweeps branch on.
const (
	CodeOK    = 0
	CodeError = 1
	CodeUsage = 2
)

// UsageError marks a command-line validation failure: the command should
// print its usage text and exit with code 2, the flag package's own
// convention for bad invocations.
type UsageError struct {
	Msg string
}

// Error implements error.
func (e *UsageError) Error() string { return e.Msg }

// Usagef returns a formatted UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Msg: fmt.Sprintf(format, args...)}
}

// IsUsage reports whether err is (or wraps) a UsageError.
func IsUsage(err error) bool {
	var ue *UsageError
	return errors.As(err, &ue)
}

// Fail logs err on log and returns the process exit code: 2 for usage
// errors (after printing usage text via the usage callback, if non-nil),
// 1 for everything else. Commands call os.Exit with the result so the
// error path is testable without exiting.
func Fail(log *slog.Logger, err error, usage func()) int {
	log.Error(err.Error())
	if IsUsage(err) {
		if usage != nil {
			usage()
		}
		return CodeUsage
	}
	return CodeError
}

// StartHeartbeat logs a progress record every interval until the returned
// stop function is called: the "-progress" lifeline for sweeps that run
// for minutes. status supplies the current position (section name, cell
// counter); it must be safe to call from another goroutine.
func StartHeartbeat(log *slog.Logger, interval time.Duration, status func() string) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				log.Info("progress",
					"elapsed", time.Since(start).Round(time.Second).String(),
					"at", status())
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
