package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(i int) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

func testPayload(i int) []byte {
	return []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", i%37)))
}

// writeSegment hand-assembles a segment file from (key, payload) pairs,
// optionally sealed. Tests use it to fabricate on-disk states the API
// would never produce (duplicates, damage, torn tails).
func writeSegment(t *testing.T, path string, sealed bool, recs ...int) {
	t.Helper()
	buf := append([]byte(nil), magic[:]...)
	var payload uint64
	for _, i := range recs {
		p := testPayload(i)
		buf = appendRecordFrame(buf, testKey(i), p)
		payload += uint64(len(p))
	}
	if sealed {
		buf = appendSealFrame(buf, uint64(len(recs)), payload)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func wantGet(t *testing.T, s *Store, i int) {
	t.Helper()
	got, ok := s.Get(testKey(i))
	if !ok {
		t.Fatalf("Get(key %d): miss, want hit", i)
	}
	if !bytes.Equal(got, testPayload(i)) {
		t.Fatalf("Get(key %d) = %q, want %q", i, got, testPayload(i))
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 50; i++ {
		if err := s.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Queued records must be visible before the flusher persists them.
	for i := 0; i < 50; i++ {
		wantGet(t, s, i)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		wantGet(t, s, i)
	}
	if _, ok := s.Get(testKey(999)); ok {
		t.Fatal("Get(absent key): hit, want miss")
	}
	st := s.Stats()
	if st.Entries != 50 {
		t.Fatalf("Entries = %d, want 50", st.Entries)
	}
	if st.HitRate() <= 0.9 {
		t.Fatalf("HitRate = %v, want > 0.9", st.HitRate())
	}
}

func TestDupPutDedupes(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	for j := 0; j < 3; j++ {
		if err := s.Put(testKey(1), testPayload(1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	for j := 0; j < 3; j++ {
		s.Put(testKey(1), testPayload(1))
	}
	if st := s.Stats(); st.Entries != 1 || st.DupPuts < 4 {
		t.Fatalf("Entries = %d, DupPuts = %d; want 1 entry, >= 4 dups", st.Entries, st.DupPuts)
	}
}

func TestCleanCloseWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 20; i++ {
		s.Put(testKey(i), testPayload(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean Close seals everything: reopen must show zero recovery
	// scars and every record warm.
	s2 := mustOpen(t, Options{Dir: dir})
	st := s2.Stats()
	if st.TruncatedTails != 0 || st.Quarantined != 0 {
		t.Fatalf("clean reopen: truncated=%d quarantined=%d, want 0/0", st.TruncatedTails, st.Quarantined)
	}
	if st.Entries != 20 {
		t.Fatalf("Entries = %d, want 20", st.Entries)
	}
	for i := 0; i < 20; i++ {
		wantGet(t, s2, i)
	}
}

// TestOpenKeepsForeignFiles: a file the store does not name, such as a
// ledger an older daemon kept in the same directory, is neither read nor
// deleted, through a full open, write and seal cycle.
func TestOpenKeepsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "ledger.mtj")
	body := []byte("not a segment")
	if err := os.WriteFile(foreign, body, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir})
	if st := s.Stats(); st.Entries != 0 || st.Quarantined != 0 {
		t.Fatalf("open over a foreign file: %+v, want empty and nothing quarantined", st)
	}
	s.Put(testKey(1), testPayload(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantGet(t, mustOpen(t, Options{Dir: dir}), 1)
	if got, err := os.ReadFile(foreign); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("foreign file after two opens: %q, %v; want it untouched", got, err)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	// A live segment with two whole records and a torn third: the
	// kill -9 signature.
	path := filepath.Join(dir, openName(0))
	writeSegment(t, path, false, 1, 2)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendRecordFrame(nil, testKey(3), testPayload(3))
	torn = torn[:len(torn)-3] // lose the last bytes of the CRC
	if err := os.WriteFile(path, append(whole, torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, Options{Dir: dir})
	st := s.Stats()
	if st.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", st.TruncatedTails)
	}
	if st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", st.Quarantined)
	}
	wantGet(t, s, 1)
	wantGet(t, s, 2)
	if _, ok := s.Get(testKey(3)); ok {
		t.Fatal("torn record served")
	}
	// The recovered segment must have been sealed in place.
	if _, err := os.Stat(filepath.Join(dir, segName(0))); err != nil {
		t.Fatalf("recovered live segment not sealed: %v", err)
	}
}

func TestSealedSegmentQuarantinedOnBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(0))
	writeSegment(t, path, true, 1, 2, 3)
	data, _ := os.ReadFile(path)
	data[len(magic)+10] ^= 0x40
	os.WriteFile(path, data, 0o644)

	s := mustOpen(t, Options{Dir: dir})
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("record from quarantined segment served")
	}
	ents, _ := os.ReadDir(dir)
	var quarantined bool
	for _, e := range ents {
		if strings.Contains(e.Name(), ".quarantined") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("no .quarantined file left for inspection")
	}
}

func TestSealedSegmentTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(0))
	writeSegment(t, path, true, 1, 2)
	// Truncate exactly at a frame boundary: without the mandatory
	// footer cross-check this would parse cleanly.
	one := append([]byte(nil), magic[:]...)
	one = appendRecordFrame(one, testKey(1), testPayload(1))
	if err := os.Truncate(path, int64(len(one))); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir})
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

func TestRuntimeDamageNeverServed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), testPayload(i))
	}
	s.Close()

	s2 := mustOpen(t, Options{Dir: dir})
	// Damage the first record of the (already scanned and accepted)
	// segment behind the running store's back: every Get re-verifies, so
	// the damage must surface as quarantine + miss, not as served bytes
	// — and quarantine takes the whole segment's records with it.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".mts") {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			data[len(magic)+8] ^= 0xff
			os.WriteFile(p, data, 0o644)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := s2.Get(testKey(i)); ok {
			t.Fatalf("damaged record %d served", i)
		}
	}
	if st := s2.Stats(); st.Quarantined == 0 {
		t.Fatal("runtime damage not quarantined")
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, CompactAfter: 64})
	const n = 40
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testPayload(i))
		if i%5 == 4 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SealedSegments < 2 {
		t.Fatalf("SealedSegments = %d, want >= 2 (rotation)", st.SealedSegments)
	}
	s.Compact()
	st := s.Stats()
	if st.SealedSegments != 1 {
		t.Fatalf("after Compact: SealedSegments = %d, want 1", st.SealedSegments)
	}
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if st.Entries != n {
		t.Fatalf("Entries = %d, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		wantGet(t, s, i)
	}
	s.Close()
	s2 := mustOpen(t, Options{Dir: dir})
	for i := 0; i < n; i++ {
		wantGet(t, s2, i)
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SegmentBytes: 128, CompactAfter: 3})
	for i := 0; i < 60; i++ {
		s.Put(testKey(i), testPayload(i))
		s.Flush()
	}
	s.Flush()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("auto compaction never triggered: %+v", st)
	}
	for i := 0; i < 60; i++ {
		wantGet(t, s, i)
	}
}

func TestCompactionCrashLeftoversRecovered(t *testing.T) {
	dir := t.TempDir()
	// Crash window 1: compaction temporary present, olds intact.
	writeSegment(t, filepath.Join(dir, segName(0)), true, 1, 2)
	writeSegment(t, filepath.Join(dir, segName(1)+".compact"), false, 9)
	s := mustOpen(t, Options{Dir: dir})
	if _, err := os.Stat(filepath.Join(dir, segName(1)+".compact")); !os.IsNotExist(err) {
		t.Fatal("compaction leftover not deleted at Open")
	}
	if _, ok := s.Get(testKey(9)); ok {
		t.Fatal("record from deleted compaction temporary served")
	}
	wantGet(t, s, 1)
	wantGet(t, s, 2)
	s.Close()

	// Crash window 2: compacted segment renamed into place, olds not yet
	// unlinked — duplicate keys across segments, first-wins dedup.
	dir2 := t.TempDir()
	writeSegment(t, filepath.Join(dir2, segName(0)), true, 1, 2)
	writeSegment(t, filepath.Join(dir2, segName(7)), true, 1, 2, 3)
	s2 := mustOpen(t, Options{Dir: dir2})
	st := s2.Stats()
	if st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", st.Quarantined)
	}
	if st.Entries != 3 {
		t.Fatalf("Entries = %d, want 3 (deduplicated)", st.Entries)
	}
	wantGet(t, s2, 1)
	wantGet(t, s2, 2)
	wantGet(t, s2, 3)
}

func TestQueueBoundDropsNeverBlocks(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, QueueDepth: 4})
	// Stall the flusher by holding its lock, then overfill the queue.
	s.mu.Lock()
	var dropped uint64
	for i := 0; i < 20; i++ {
		if len(s.pending) >= s.opts.QueueDepth {
			dropped++
		}
		if len(s.pending) < s.opts.QueueDepth {
			s.pending = append(s.pending, pendingRec{key: testKey(i), payload: testPayload(i)})
			s.pendingIdx[testKey(i)] = len(s.pending) - 1
		}
	}
	s.mu.Unlock()
	// Exercise the real Put bound too.
	for i := 100; i < 120; i++ {
		if err := s.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Dropped == 0 && st.PendingWrites > s.opts.QueueDepth {
		t.Fatalf("queue exceeded bound without dropping: %+v", st)
	}
	s.Flush()
}

func TestPutGetAfterClose(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Close()
	if err := s.Put(testKey(1), testPayload(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("Get after Close returned a hit")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestVerifyReportsTypedCorruption(t *testing.T) {
	good := append([]byte(nil), magic[:]...)
	good = appendRecordFrame(good, testKey(1), testPayload(1))
	good = appendSealFrame(good, 1, uint64(len(testPayload(1))))

	if n, err := Verify(bytes.NewReader(good), true); err != nil || n != 1 {
		t.Fatalf("Verify(valid) = %d, %v", n, err)
	}

	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		_, err := Verify(bytes.NewReader(bad), true)
		if err == nil {
			t.Fatalf("bit flip at offset %d accepted silently", off)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit flip at offset %d: error %T is not *CorruptError", off, err)
		}
	}

	for cut := 0; cut < len(good); cut++ {
		_, err := Verify(bytes.NewReader(good[:cut]), true)
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted silently", cut)
		}
	}
}

func TestCorruptErrorOffsets(t *testing.T) {
	buf := append([]byte(nil), magic[:]...)
	buf = appendRecordFrame(buf, testKey(1), testPayload(1))
	recStart := len(magic)
	buf[recStart+5] ^= 0x80
	buf = appendSealFrame(buf, 1, uint64(len(testPayload(1))))
	_, err := Verify(bytes.NewReader(buf), true)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CorruptError", err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if ce.Offset != int64(recStart) {
		t.Fatalf("Offset = %d, want %d (frame start)", ce.Offset, recStart)
	}
}

func TestEmptyLiveSegmentDiscarded(t *testing.T) {
	dir := t.TempDir()
	// Only a magic header — a process died right after rotation.
	if err := os.WriteFile(filepath.Join(dir, openName(3)), magic[:], 0o644); err != nil {
		t.Fatal(err)
	}
	// A zero-byte .open — died inside create.
	if err := os.WriteFile(filepath.Join(dir, openName(4)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir})
	st := s.Stats()
	if st.Quarantined != 0 || st.Entries != 0 {
		t.Fatalf("empty live segments mishandled: %+v", st)
	}
	// Both files must be gone (not quarantined, just discarded).
	for _, id := range []int64{3, 4} {
		if _, err := os.Stat(filepath.Join(dir, openName(id))); !os.IsNotExist(err) {
			t.Fatalf("empty live segment %d not discarded", id)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 512})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Put(testKey(i), testPayload(i))
		}
	}()
	for i := 0; i < 200; i++ {
		if got, ok := s.Get(testKey(i)); ok && !bytes.Equal(got, testPayload(i)) {
			t.Errorf("key %d: wrong bytes", i)
		}
	}
	<-done
	s.Flush()
	for i := 0; i < 200; i++ {
		wantGet(t, s, i)
	}
}

// TestOpenLocksDirectory: a directory has one owner at a time. A second
// Open on a live directory fails and names it, instead of sealing the
// first store's live segment under it; Open after Close succeeds.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(testKey(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(Options{Dir: dir}); err == nil {
		s2.Close()
		t.Fatal("second Open on a live directory succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("error %q does not name the directory %s", err, dir)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, Options{Dir: dir})
	wantGet(t, s3, 1)
}
