package retry

import (
	"net/http"
	"testing"
	"time"
)

func TestDelayGrowsExponentiallyAndCaps(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second,
		time.Second,
	}
	for attempt, w := range want {
		if got := p.Delay(attempt, 0, 0.5); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestDelayJitterSpreadsWithinBand(t *testing.T) {
	p := Policy{BaseDelay: time.Second, MaxDelay: time.Minute, Jitter: 0.2}
	lo := p.Delay(0, 0, 0)
	mid := p.Delay(0, 0, 0.5)
	hi := p.Delay(0, 0, 0.999999)
	if lo >= mid || mid >= hi {
		t.Fatalf("jitter not monotone: %v %v %v", lo, mid, hi)
	}
	if lo < 800*time.Millisecond || hi > 1200*time.Millisecond {
		t.Fatalf("jitter outside +/-20%% band: %v .. %v", lo, hi)
	}
	if mid != time.Second {
		t.Fatalf("midpoint jitter = %v, want 1s", mid)
	}
}

func TestDelayHonorsHintFloor(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, Jitter: -1}
	if got := p.Delay(0, 5*time.Second, 0.5); got != 5*time.Second {
		t.Fatalf("Delay with 5s hint = %v, want 5s (Retry-After wins)", got)
	}
	if got := p.Delay(0, 10*time.Millisecond, 0.5); got != 100*time.Millisecond {
		t.Fatalf("Delay with small hint = %v, want 100ms (backoff wins)", got)
	}
}

func TestDelayNeverNegative(t *testing.T) {
	p := Policy{}
	for _, attempt := range []int{-5, 0, 3, 100} {
		if got := p.Delay(attempt, -time.Hour, 0); got < 0 {
			t.Fatalf("Delay(%d) = %v, negative", attempt, got)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		value string
		want  time.Duration
		ok    bool
	}{
		{"", 0, false},
		{"7", 7 * time.Second, true},
		{"0", 0, true},
		{"-3", 0, false},
		{"garbage", 0, false},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true},
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.value, now)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = %v, %v; want %v, %v", c.value, got, ok, c.want, c.ok)
		}
	}
}
