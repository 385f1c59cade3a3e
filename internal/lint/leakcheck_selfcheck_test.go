package lint_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The leakcheck selfcheck pairs the analyzer's static verdicts with
// counts of the goroutines running the same shapes compiled into this
// binary: the shape the analyzer accepts must actually terminate when
// signalled, and the shape it flags must actually stay resident. If the
// dynamic half fails while the static half passes, the analyzer has a
// blind spot worth a new check — and vice versa.

// stoppableWorker is the clean shape: the loop consults a done channel
// the spawner controls. Leakcheck accepts it.
func stoppableWorker(done <-chan struct{}, work <-chan int) {
	for {
		select {
		case <-done:
			return
		case <-work:
		}
	}
}

// leakyWorker is the flagged shape: a loop with no exit statement at
// all. It parks on the receive forever — exactly the leak the analyzer
// reports as "no exit path" — without burning CPU in the test binary.
func leakyWorker(blocked chan struct{}) {
	for {
		<-blocked
	}
}

// running counts the goroutines executing fn, a function of this
// package, in a dump of every goroutine's stack. Counting one shape
// rather than runtime.NumGoroutine keeps every other goroutine of the
// test binary out of the measurement.
func running(fn string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "lint_test."+fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// pollUntil retries cond every millisecond until it holds or the
// deadline passes.
func pollUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestLeakcheckStaticVerdicts is the static half: the fixture's leaky
// shapes are flagged and nothing else is (the want-comment harness
// asserts the exact lines; this pins the count and wording so the
// dynamic half below cross-references a known verdict).
func TestLeakcheckStaticVerdicts(t *testing.T) {
	diags := linttest.Diagnostics(t, []*lint.Analyzer{lint.Leakcheck}, "leakcheck/a")
	if len(diags) == 0 {
		t.Fatal("leakcheck found nothing in its own fixture")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "no exit path") && !strings.Contains(d.Message, "no provable stop path") {
			t.Errorf("unexpected leakcheck wording: %s", d)
		}
	}
}

// TestLeakcheckMatchesRuntime is the dynamic half.
func TestLeakcheckMatchesRuntime(t *testing.T) {
	base := running("stoppableWorker")

	// The accepted shape terminates: spawn a crowd, signal, and the
	// shape's goroutine count returns to baseline.
	const n = 8
	done := make(chan struct{})
	work := make(chan int)
	for i := 0; i < n; i++ {
		go stoppableWorker(done, work)
	}
	if !pollUntil(5*time.Second, func() bool { return running("stoppableWorker") >= base+n }) {
		t.Fatalf("workers did not start: %d running, want >= %d", running("stoppableWorker"), base+n)
	}
	close(done)
	if !pollUntil(5*time.Second, func() bool { return running("stoppableWorker") <= base }) {
		t.Errorf("stop-path shape leaked: %d running after close(done), baseline %d — leakcheck accepts a shape that does not terminate",
			running("stoppableWorker"), base)
	}

	// The flagged shape stays resident: it has no stop path, so it is
	// still there after a grace period (and is deliberately left parked —
	// that persistence is the property under test).
	leakBase := running("leakyWorker")
	go leakyWorker(make(chan struct{}))
	if !pollUntil(5*time.Second, func() bool { return running("leakyWorker") >= leakBase+1 }) {
		t.Fatalf("leaky worker did not start")
	}
	time.Sleep(50 * time.Millisecond)
	if got := running("leakyWorker"); got < leakBase+1 {
		t.Errorf("shape leakcheck flags as leaky exited on its own: %d running, want >= %d — the analyzer is over-approximating",
			got, leakBase+1)
	}
}
