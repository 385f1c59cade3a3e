// Package retry is the backoff core behind serve/client's handling of
// 429/5xx responses (honoring Retry-After), which experiments -remote
// and the coordinator's calls to its workers go through.
//
// The package is deliberately clock-free and randomness-free: Delay
// takes the attempt number and a caller-supplied jitter unit, and
// ParseRetryAfter takes the current time as an argument. Callers own their
// clock and their random source, so every schedule the package computes
// is reproducible in tests — the same discipline the determinism
// analyzer enforces on the simulation core.
package retry

import (
	"net/http"
	"strconv"
	"time"
)

// Policy computes exponential-backoff delays with bounded attempts.
// The zero value of each field gets a sensible default.
type Policy struct {
	// BaseDelay is the first retry's delay. Default 250ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Default 30s.
	MaxDelay time.Duration
	// Multiplier is the per-attempt growth factor. Default 2.
	Multiplier float64
	// MaxAttempts bounds total attempts (first try included). Default 8.
	MaxAttempts int
	// Jitter is the +/- fraction applied to each delay (0.2 = +/-20%).
	// Default 0.2; set negative for exactly zero jitter.
	Jitter float64
}

func (p Policy) withDefaults() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 250 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 30 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	switch {
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter == 0:
		p.Jitter = 0.2
	}
	return p
}

// Attempts returns the bounded total number of attempts.
func (p Policy) Attempts() int { return p.withDefaults().MaxAttempts }

// Delay returns how long to wait before retry number attempt (0-based:
// attempt 0 is the delay after the first failure). hint is a
// server-supplied floor — typically a parsed Retry-After — and wins when
// it exceeds the computed backoff; jitterUnit in [0, 1) supplies the
// randomness (pass 0.5 for the midpoint, i.e. no jitter). The result is
// never negative.
func (p Policy) Delay(attempt int, hint time.Duration, jitterUnit float64) time.Duration {
	p = p.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if jitterUnit < 0 {
		jitterUnit = 0
	} else if jitterUnit >= 1 {
		jitterUnit = 1 - 1e-9
	}
	// Spread across [1-Jitter, 1+Jitter) so herds of retriers decorrelate.
	d *= 1 + p.Jitter*(2*jitterUnit-1)
	delay := time.Duration(d)
	if delay > p.MaxDelay {
		delay = p.MaxDelay
	}
	if hint > delay {
		delay = hint
	}
	if delay < 0 {
		delay = 0
	}
	return delay
}

// ParseRetryAfter decodes an HTTP Retry-After header value — either
// delta-seconds or an HTTP date — into a wait duration relative to now.
// Returns false for an absent or unparseable value. A date in the past
// yields 0, true (retry immediately).
func ParseRetryAfter(value string, now time.Time) (time.Duration, bool) {
	if value == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(value); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if when, err := http.ParseTime(value); err == nil {
		d := when.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
