// Package store is the durable result store: an append-only,
// content-addressed, checksummed cache of simulation results that
// survives daemon restarts. It sits under rescache as a second tier in
// mtserve and mtcoord (-store-dir): a rescache miss probes the store
// before paying for a recompute, so a restarted daemon warm-starts from
// disk instead of redoing sweeps it already proved correct.
//
// On disk the store is a directory of MTS1 segments (see format.go).
// Writes are write-behind: Put enqueues into a bounded in-memory queue
// and a flusher goroutine appends batches to the live segment; once the
// live segment crosses the size threshold it is sealed — footer, fsync,
// atomic rename from .open to .mts — and a fresh one started. Background
// compaction merges many sealed segments into one, itself crash-safe:
// the compacted segment is fully written and synced under a temporary
// name before any old segment is unlinked, so a crash at any instant
// leaves either the olds, or the olds plus a duplicate-keyed new segment
// (deduplicated first-wins at the next Open — identical bytes either
// way, because keys are content addresses).
//
// Robustness contract: the store never panics on damaged input and never
// serves a damaged byte. Every record is CRC-verified on every read, not
// just at startup. Any anomaly — checksum mismatch, torn frame, bad
// footer, impossible length — is reported as a typed *CorruptError
// internally, the offending segment is renamed aside to *.quarantined,
// and the lookup becomes a miss: the caller recomputes, exactly as if
// the cell had never been cached. The only exception is the expected
// crash signature of a live segment (torn tail after kill -9), which is
// truncated at the last valid frame boundary and the prefix kept: a
// crash loses at most the frame being written, never a complete frame
// before it.
//
// One process owns a directory at a time: Open takes an exclusive
// flock on <dir>/LOCK and Close releases it. A second opener would
// otherwise mistake the first one's live segment for a crash leftover
// and seal it under the writer. The kernel drops the lock when its
// holder dies, so a restart after kill -9 opens the directory as usual.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// Options configures Open. The zero value of every field except Dir gets
// a sensible default.
type Options struct {
	// Dir is the store directory (created if missing). Required.
	Dir string
	// SegmentBytes seals the live segment once it grows past this many
	// bytes. Default 4 MiB.
	SegmentBytes int64
	// QueueDepth bounds the write-behind queue (records, not bytes).
	// When the queue is full Put drops the record and counts it — the
	// store is a cache, so dropping under pressure is always safe.
	// Default 1024.
	QueueDepth int
	// CompactAfter triggers background compaction once more than this
	// many sealed segments exist. Default 8.
	CompactAfter int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 8
	}
	return o
}

// Stats is a point-in-time snapshot of store effectiveness and health.
// The robustness counters (Quarantined, TruncatedTails, WriteErrors) are
// the observable half of the never-crash contract: damage shows up here
// and in the metrics, not as a panic or a wrong answer.
type Stats struct {
	Entries        int    `json:"entries"`
	SealedSegments int    `json:"sealed_segments"`
	PendingWrites  int    `json:"pending_writes"`
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	DupPuts        uint64 `json:"dup_puts"`
	Dropped        uint64 `json:"dropped"`
	WriteErrors    uint64 `json:"write_errors"`
	Quarantined    uint64 `json:"quarantined"`
	TruncatedTails uint64 `json:"truncated_tails"`
	Compactions    uint64 `json:"compactions"`
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ref locates one live record: which segment, and where inside it.
type ref struct {
	seg int64
	e   entry
}

// pendingRec is one queued write-behind record.
type pendingRec struct {
	key     Key
	payload []byte
}

// Store is the durable result store. Safe for concurrent use. All
// mutable state is guarded by mu; the flusher goroutine and every API
// caller go through the same lock, so reads never observe a
// half-applied write and the census has a single guard to prove.
type Store struct {
	opts Options
	dir  string
	// lock holds the exclusive flock on <dir>/LOCK from Open to Close.
	lock *os.File

	mu sync.Mutex
	// index maps content address -> record location. Rebuilt from the
	// segment scan at Open.
	index map[Key]ref
	// segs holds the open sealed-segment files, keyed by segment id.
	segs map[int64]*os.File
	// active is the live .open segment the flusher appends to.
	active     *os.File
	activeID   int64
	activeSize int64
	// activeRecs / activePayload accumulate the footer cross-check
	// counts for the live segment.
	activeRecs    uint64
	activePayload uint64
	nextID        int64
	// pending is the bounded write-behind queue; pendingIdx indexes it
	// by key so Get sees queued records and Put dedupes against them.
	pending    []pendingRec
	pendingIdx map[Key]int
	closed     bool

	hits           uint64
	misses         uint64
	puts           uint64
	dupPuts        uint64
	dropped        uint64
	writeErrors    uint64
	quarantined    uint64
	truncatedTails uint64
	compactions    uint64

	// wake nudges the flusher (buffered, never blocks); stop asks it to
	// exit; done closes when it has.
	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

func segName(id int64) string  { return fmt.Sprintf("seg-%08d.mts", id) }
func openName(id int64) string { return fmt.Sprintf("seg-%08d.open", id) }
func parseSeg(name, ext string) (int64, bool) {
	var id int64
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	num, ok := strings.CutSuffix(rest, ext)
	if !ok || len(num) != 8 {
		return 0, false
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int64(c-'0')
	}
	return id, true
}

// Open opens (or creates) the store at opts.Dir, recovering its index by
// scanning every segment. Recovery never fails on damaged segments —
// they are quarantined and counted — so the only errors Open returns are
// environmental (directory cannot be created, files cannot be opened).
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}

	s := &Store{
		opts:       opts,
		dir:        opts.Dir,
		lock:       lock,
		index:      make(map[Key]ref),
		segs:       make(map[int64]*os.File),
		pendingIdx: make(map[Key]int),
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	// Recovery runs under mu even though the flusher has not started and
	// the store is not yet published: the lock is uncontended, and it
	// keeps the guard invariant uniform — every write to the index,
	// segment table and live-segment state happens with mu held, with no
	// pre-publication special case for the shared-state census to excuse.
	s.mu.Lock()
	err = s.recover()
	if err == nil {
		err = s.openActive()
	}
	if err != nil {
		s.closeFiles()
		lock.Close()
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()
	go s.flusher()
	return s, nil
}

// lockDir takes the exclusive, non-blocking flock on dir/LOCK that
// makes one Store the directory's only writer. Closing the returned
// file releases the lock.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: directory %s is in use by another open store: %w", dir, err)
	}
	return f, nil
}

// recover rebuilds the index from disk: delete compaction leftovers,
// scan sealed segments (quarantining any anomaly), then recover live
// segments (truncating torn tails, quarantining interior damage) and
// seal the survivors. Caller (Open) holds mu.
func (s *Store) recover() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var sealed, live []int64
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".compact"):
			// A compaction that never completed its rename: the olds are
			// all still present, so the partial output is garbage.
			os.Remove(filepath.Join(s.dir, name))
		default:
			if id, ok := parseSeg(name, ".mts"); ok {
				sealed = append(sealed, id)
			} else if id, ok := parseSeg(name, ".open"); ok {
				live = append(live, id)
			}
		}
	}
	sort.Slice(sealed, func(i, j int) bool { return sealed[i] < sealed[j] })
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })

	for _, id := range sealed {
		if id >= s.nextID {
			s.nextID = id + 1
		}
		path := filepath.Join(s.dir, segName(id))
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		res, scanErr := scanSegment(f, true)
		if scanErr != nil {
			f.Close()
			s.quarantine(path)
			continue
		}
		s.adopt(id, res.entries)
		s.segs[id] = f
	}

	for _, id := range live {
		if id >= s.nextID {
			s.nextID = id + 1
		}
		if err := s.recoverLive(id); err != nil {
			return err
		}
	}
	return nil
}

// recoverLive recovers one .open segment left by a previous process: a
// torn tail (the expected kill -9 signature) is truncated away and the
// valid prefix kept; interior damage quarantines the whole file; a
// recovered non-empty segment is sealed in place so every surviving
// record is footer-protected from here on.
func (s *Store) recoverLive(id int64) error {
	path := filepath.Join(s.dir, openName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	res, scanErr := scanSegment(f, false)
	if scanErr != nil {
		var ce *CorruptError
		if errors.As(scanErr, &ce) && errors.Is(ce.Err, ErrTruncated) && res.validBytes > int64(len(magic)) {
			// Torn tail with a usable prefix: drop the tail, keep the rest.
			if err := f.Truncate(res.validBytes); err != nil {
				f.Close()
				return fmt.Errorf("store: %w", err)
			}
			s.truncatedTails++
		} else {
			// Interior damage, a torn tail with nothing before it, or a
			// file too short to carry its magic: quarantine / discard.
			f.Close()
			if res.validBytes <= int64(len(magic)) && len(res.entries) == 0 {
				os.Remove(path)
			} else {
				s.quarantine(path)
			}
			return nil
		}
	}
	if len(res.entries) == 0 {
		f.Close()
		os.Remove(path)
		return nil
	}
	// Seal the recovered segment: footer over the surviving records,
	// fsync, atomic rename to its .mts name.
	var payload uint64
	for _, e := range res.entries {
		payload += uint64(e.payloadLen)
	}
	foot := appendSealFrame(nil, uint64(len(res.entries)), payload)
	if _, err := f.WriteAt(foot, res.validBytes); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	final := filepath.Join(s.dir, segName(id))
	if err := os.Rename(path, final); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	syncDir(s.dir)
	s.adopt(id, res.entries)
	s.segs[id] = f
	return nil
}

// adopt merges one scanned segment's entries into the index,
// first-wins: when the same content address appears in more than one
// segment (possible only after a crash between a compaction rename and
// its unlinks) the earlier segment keeps the record — the bytes are
// identical by content addressing, so either choice is correct.
func (s *Store) adopt(id int64, entries []entry) {
	for _, e := range entries {
		if _, ok := s.index[e.key]; !ok {
			s.index[e.key] = ref{seg: id, e: e}
		}
	}
}

// quarantine renames a damaged segment aside (path -> path.quarantined,
// with a numeric suffix if that name is taken) so it is out of the scan
// set but preserved for inspection. Never fails loudly: if even the
// rename fails the file is removed — a damaged segment must not be
// rescanned as live data.
func (s *Store) quarantine(path string) {
	target := path + ".quarantined"
	for i := 1; ; i++ {
		if _, err := os.Lstat(target); os.IsNotExist(err) {
			break
		}
		target = fmt.Sprintf("%s.quarantined.%d", path, i)
	}
	if err := os.Rename(path, target); err != nil {
		os.Remove(path)
	}
	syncDir(s.dir)
	s.quarantined++
}

// openActive starts a fresh live segment.
func (s *Store) openActive() error {
	id := s.nextID
	s.nextID++
	f, err := os.OpenFile(filepath.Join(s.dir, openName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	s.activeID = id
	s.activeSize = int64(len(magic))
	s.activeRecs = 0
	s.activePayload = 0
	return nil
}

// closeFiles closes every open file handle (failed-Open cleanup path).
func (s *Store) closeFiles() {
	for _, f := range s.segs {
		f.Close()
	}
	if s.active != nil {
		s.active.Close()
	}
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort: not every platform supports it, and a missed
// directory sync degrades durability, not correctness.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Get returns the payload stored under k, or nil, false on a miss. The
// record's CRC is verified on every read; if the verification fails the
// whole segment is quarantined, the lookup becomes a miss, and the
// caller recomputes — a damaged byte is never served.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if i, ok := s.pendingIdx[k]; ok {
		s.hits++
		return append([]byte(nil), s.pending[i].payload...), true
	}
	r, ok := s.index[k]
	if !ok {
		s.misses++
		return nil, false
	}
	f := s.fileFor(r.seg)
	if f == nil {
		// Segment vanished under us (quarantined by a concurrent Get).
		delete(s.index, k)
		s.misses++
		return nil, false
	}
	payload, err := readRecordPayload(f, r.e)
	if err != nil {
		s.quarantineSegLocked(r.seg)
		s.misses++
		return nil, false
	}
	s.hits++
	return payload, true
}

// Len returns the number of stored records (indexed + queued).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index) + len(s.pending)
}

// fileFor resolves a segment id to its open file. Caller holds mu.
func (s *Store) fileFor(id int64) *os.File {
	if id == s.activeID {
		return s.active
	}
	return s.segs[id]
}

// quarantineSegLocked takes a damaged segment out of service at runtime:
// every index entry pointing into it is dropped, the file is renamed
// aside, and — if it was the live segment — a fresh one is started.
// Caller holds mu.
func (s *Store) quarantineSegLocked(id int64) {
	for k, r := range s.index {
		if r.seg == id {
			delete(s.index, k)
		}
	}
	if id == s.activeID && s.active != nil {
		s.active.Close()
		s.active = nil
		s.quarantine(filepath.Join(s.dir, openName(id)))
		if err := s.openActive(); err != nil {
			s.writeErrors++
		}
		return
	}
	if f, ok := s.segs[id]; ok {
		f.Close()
		delete(s.segs, id)
		s.quarantine(filepath.Join(s.dir, segName(id)))
	}
}

// Put enqueues payload under k for write-behind persistence. Duplicate
// keys are dropped (content addressing: equal key means equal bytes);
// when the bounded queue is full the record is dropped and counted —
// never blocks the serving path. The payload is copied.
func (s *Store) Put(k Key, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("store: payload %d bytes exceeds limit %d", len(payload), maxPayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[k]; ok {
		s.dupPuts++
		return nil
	}
	if _, ok := s.pendingIdx[k]; ok {
		s.dupPuts++
		return nil
	}
	if len(s.pending) >= s.opts.QueueDepth {
		s.dropped++
		return nil
	}
	s.pending = append(s.pending, pendingRec{key: k, payload: append([]byte(nil), payload...)})
	s.pendingIdx[k] = len(s.pending) - 1
	s.puts++
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return nil
}

// flusher is the write-behind goroutine: it drains the pending queue
// into the live segment, seals segments past the size threshold, and
// compacts when sealed segments pile up.
func (s *Store) flusher() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
			s.mu.Lock()
			s.flushLocked()
			s.maybeCompactLocked()
			s.mu.Unlock()
		}
	}
}

// flushLocked appends every pending record to the live segment and
// indexes it, sealing and rotating the segment whenever it crosses the
// size threshold. Write failures abandon the live segment (quarantined,
// records re-dropped) rather than risking a glued-torn-frame file.
// Caller holds mu.
func (s *Store) flushLocked() {
	for len(s.pending) > 0 {
		if s.active == nil {
			if err := s.openActive(); err != nil {
				s.writeErrors++
				s.dropped += uint64(len(s.pending))
				s.pending = nil
				s.pendingIdx = make(map[Key]int)
				return
			}
		}
		batch := s.pending
		s.pending = nil
		s.pendingIdx = make(map[Key]int)
		var buf []byte
		var recs, payload uint64
		var entries []entry
		off := s.activeSize
		for _, p := range batch {
			start := len(buf)
			buf = appendRecordFrame(buf, p.key, p.payload)
			entries = append(entries, entry{
				key:        p.key,
				off:        off + int64(start),
				frameLen:   int64(len(buf) - start),
				payloadLen: len(p.payload),
			})
			recs++
			payload += uint64(len(p.payload))
		}
		if _, err := s.active.Write(buf); err != nil {
			// The file may now hold a partial frame; appending more would
			// bury a torn frame mid-segment. Quarantine and start fresh.
			s.writeErrors++
			s.dropped += recs
			s.quarantineSegLocked(s.activeID)
			return
		}
		s.activeSize += int64(len(buf))
		s.activeRecs += recs
		s.activePayload += payload
		for _, e := range entries {
			if _, ok := s.index[e.key]; !ok {
				s.index[e.key] = ref{seg: s.activeID, e: e}
			}
		}
		if s.activeSize >= s.opts.SegmentBytes {
			s.sealActiveLocked()
		}
	}
}

// sealActiveLocked seals the live segment — footer, fsync, atomic rename
// to .mts — and starts a fresh one. Caller holds mu.
func (s *Store) sealActiveLocked() {
	if s.active == nil {
		return
	}
	if s.activeRecs == 0 {
		// Nothing in it; keep appending rather than sealing an empty file.
		return
	}
	foot := appendSealFrame(nil, s.activeRecs, s.activePayload)
	if _, err := s.active.Write(foot); err != nil {
		s.writeErrors++
		s.quarantineSegLocked(s.activeID)
		return
	}
	if err := s.active.Sync(); err != nil {
		s.writeErrors++
		s.quarantineSegLocked(s.activeID)
		return
	}
	id := s.activeID
	if err := os.Rename(filepath.Join(s.dir, openName(id)), filepath.Join(s.dir, segName(id))); err != nil {
		s.writeErrors++
		s.quarantineSegLocked(id)
		return
	}
	syncDir(s.dir)
	s.segs[id] = s.active
	s.active = nil
	if err := s.openActive(); err != nil {
		s.writeErrors++
	}
}

// maybeCompactLocked merges all sealed segments into one once more than
// CompactAfter of them exist. Crash-safe by construction: the merged
// segment is fully written and fsynced under a .compact temporary name,
// atomically renamed to a fresh .mts id, and only then are the old
// segments unlinked. A crash before the rename leaves the olds intact
// plus a garbage temporary (deleted at next Open); a crash after the
// rename but before the unlinks leaves duplicate keys, deduplicated
// first-wins at next Open. Caller holds mu.
func (s *Store) maybeCompactLocked() {
	if len(s.segs) <= s.opts.CompactAfter {
		return
	}
	// Deterministic output: records sorted by content address, never map
	// order.
	type item struct {
		key Key
		r   ref
	}
	var items []item
	for k, r := range s.index {
		if r.seg != s.activeID {
			items = append(items, item{key: k, r: r})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		return string(items[i].key[:]) < string(items[j].key[:])
	})

	id := s.nextID
	s.nextID++
	tmpPath := filepath.Join(s.dir, segName(id)+".compact")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		s.writeErrors++
		return
	}
	abort := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	buf := append([]byte(nil), magic[:]...)
	var written int64 // bytes already drained to tmp
	var entries []entry
	var recs, payload uint64
	for _, it := range items {
		f := s.segs[it.r.seg]
		if f == nil {
			continue
		}
		pl, err := readRecordPayload(f, it.r.e)
		if err != nil {
			// A sealed segment went bad after its Open-time scan:
			// quarantine it, drop its records from this compaction (and
			// the index), and keep going — compaction must not abort on
			// damage it exists to clean up.
			s.quarantineSegLocked(it.r.seg)
			continue
		}
		start := written + int64(len(buf))
		buf = appendRecordFrame(buf, it.key, pl)
		entries = append(entries, entry{
			key:        it.key,
			off:        start,
			frameLen:   written + int64(len(buf)) - start,
			payloadLen: len(pl),
		})
		recs++
		payload += uint64(len(pl))
		if len(buf) >= 1<<20 {
			if _, err := tmp.Write(buf); err != nil {
				s.writeErrors++
				abort()
				return
			}
			written += int64(len(buf))
			buf = buf[:0]
		}
	}
	buf = appendSealFrame(buf, recs, payload)
	if _, err := tmp.Write(buf); err != nil {
		s.writeErrors++
		abort()
		return
	}
	if err := tmp.Sync(); err != nil {
		s.writeErrors++
		abort()
		return
	}
	final := filepath.Join(s.dir, segName(id))
	if err := os.Rename(tmpPath, final); err != nil {
		s.writeErrors++
		abort()
		return
	}
	syncDir(s.dir)
	// Point of no return: the compacted segment is durable. Swap the
	// index over, then retire the olds.
	oldIDs := make([]int64, 0, len(s.segs))
	for oid := range s.segs {
		oldIDs = append(oldIDs, oid)
	}
	sort.Slice(oldIDs, func(i, j int) bool { return oldIDs[i] < oldIDs[j] })
	s.segs[id] = tmp
	for _, e := range entries {
		s.index[e.key] = ref{seg: id, e: e}
	}
	for _, oid := range oldIDs {
		if f := s.segs[oid]; f != nil {
			f.Close()
		}
		delete(s.segs, oid)
		os.Remove(filepath.Join(s.dir, segName(oid)))
	}
	syncDir(s.dir)
	s.compactions++
}

// Flush synchronously drains the write-behind queue and fsyncs the live
// segment, so everything Put before the call survives a crash after it.
// The graceful-drain path (SIGTERM) calls this before exit.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.flushLocked()
	s.maybeCompactLocked()
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			s.writeErrors++
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Compact forces a compaction pass regardless of the sealed-segment
// threshold (seals the live segment first so everything participates).
// Exposed for tests and operational tooling.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.flushLocked()
	s.sealActiveLocked()
	saved := s.opts.CompactAfter
	s.opts.CompactAfter = 0
	s.maybeCompactLocked()
	s.opts.CompactAfter = saved
}

// Close drains the queue, seals the live segment and closes every file.
// After a clean Close the directory holds only sealed, footer-protected
// segments, so the next Open recovers with zero truncation or
// quarantine. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	<-s.done

	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.sealActiveLocked()
	if s.active != nil {
		// Seal declined (empty segment): remove the empty .open file.
		s.active.Close()
		os.Remove(filepath.Join(s.dir, openName(s.activeID)))
		s.active = nil
	}
	for _, f := range s.segs {
		f.Close()
	}
	s.segs = make(map[int64]*os.File)
	s.index = make(map[Key]ref)
	return s.lock.Close()
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:        len(s.index) + len(s.pending),
		SealedSegments: len(s.segs),
		PendingWrites:  len(s.pending),
		Hits:           s.hits,
		Misses:         s.misses,
		Puts:           s.puts,
		DupPuts:        s.dupPuts,
		Dropped:        s.dropped,
		WriteErrors:    s.writeErrors,
		Quarantined:    s.quarantined,
		TruncatedTails: s.truncatedTails,
		Compactions:    s.compactions,
	}
}

// Verify scans one segment byte stream and returns the number of intact
// records, reporting any anomaly as a *CorruptError with byte offset.
// sealed selects the stricter contract (mandatory matching footer).
// Exposed for the resilience fault matrix and offline tooling.
func Verify(r io.Reader, sealed bool) (int, error) {
	res, err := scanSegment(r, sealed)
	return len(res.entries), err
}
