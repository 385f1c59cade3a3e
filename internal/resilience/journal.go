package resilience

import (
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Journal is an append-only, crash-safe record of completed work units.
// The webhook dispatcher keeps its delivery ledger in one: a pending
// record per accepted delivery and a done record per terminal outcome.
//
// On-disk format ("MTJ1"), one record per line:
//
//	MTJ1 <crc32-hex> <quoted key> <quoted value>\n
//
// The CRC32 (IEEE, hex) covers `<quoted key> <quoted value>`. Keys and
// values are strconv-quoted, so keys containing spaces ("Table 1") and
// arbitrary values survive. The first record is the binding: key
// "journal-binding", value naming the writer; Open refuses to replay a
// journal written under a different binding, because another writer's
// records would be misread.
//
// Each Record is followed by Sync, so a completed record survives a
// crash. A torn final line (killed mid-append) is tolerated and dropped
// at Open; a damaged record anywhere else fails loudly.
type Journal struct {
	f    *os.File
	path string
	done map[string]string
}

const (
	journalMagic = "MTJ1"
	// bindingKey is the reserved key of the mandatory first record.
	bindingKey = "journal-binding"
)

// formatRecord renders one journal line (without trailing newline).
func formatRecord(key, value string) string {
	body := strconv.Quote(key) + " " + strconv.Quote(value)
	return fmt.Sprintf("%s %08x %s", journalMagic, crc32.ChecksumIEEE([]byte(body)), body)
}

// parseRecord decodes one journal line.
func parseRecord(line string) (key, value string, err error) {
	rest, ok := strings.CutPrefix(line, journalMagic+" ")
	if !ok {
		return "", "", fmt.Errorf("bad record prefix")
	}
	crcHex, body, ok := strings.Cut(rest, " ")
	if !ok {
		return "", "", fmt.Errorf("missing record body")
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return "", "", fmt.Errorf("bad record checksum field: %v", err)
	}
	if got := crc32.ChecksumIEEE([]byte(body)); got != uint32(want) {
		return "", "", fmt.Errorf("record checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	quotedKey, err := strconv.QuotedPrefix(body)
	if err != nil {
		return "", "", fmt.Errorf("bad record key: %v", err)
	}
	if key, err = strconv.Unquote(quotedKey); err != nil {
		return "", "", fmt.Errorf("bad record key: %v", err)
	}
	tail, ok := strings.CutPrefix(body[len(quotedKey):], " ")
	if !ok {
		return "", "", fmt.Errorf("missing record value")
	}
	value, err = strconv.Unquote(tail)
	if err != nil {
		return "", "", fmt.Errorf("bad record value: %v", err)
	}
	return key, value, nil
}

// OpenJournal opens (or creates) the journal at path for a run with the
// given binding. A fresh journal gets the binding as its first record. An
// existing journal is replayed: its completed records become Done
// entries, a torn final line is dropped, and a binding mismatch or a
// damaged interior record is an error — replaying the wrong journal must
// fail, not silently misread foreign records.
func OpenJournal(path, binding string) (*Journal, error) {
	j := &Journal{path: path, done: make(map[string]string)}

	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh journal.
	case err != nil:
		return nil, fmt.Errorf("resilience: journal %s: %w", path, err)
	default:
		if err := j.replay(string(data), binding); err != nil {
			return nil, fmt.Errorf("resilience: journal %s: %w", path, err)
		}
		// Physically drop a torn tail before appending, or the next
		// record would be glued onto the partial one.
		if valid := strings.LastIndexByte(string(data), '\n') + 1; valid != len(data) {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("resilience: journal %s: %w", path, err)
			}
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resilience: journal %s: %w", path, err)
	}
	j.f = f
	if len(j.done) == 0 {
		// Fresh (or fully torn) journal: write the binding record.
		if err := j.append(bindingKey, binding); err != nil {
			f.Close()
			return nil, err
		}
		j.done[bindingKey] = binding
	}
	return j, nil
}

// replay loads an existing journal's records.
func (j *Journal) replay(data, binding string) error {
	lines := strings.Split(data, "\n")
	// A file killed mid-append may end in a partial record: everything
	// after the final newline is the torn tail and is dropped. (With a
	// trailing newline the last element is "", dropped the same way.)
	lines = lines[:len(lines)-1]
	for i, line := range lines {
		key, value, err := parseRecord(line)
		if err != nil {
			return fmt.Errorf("record %d: %w", i+1, err)
		}
		if i == 0 {
			if key != bindingKey {
				return fmt.Errorf("first record is %q, not the binding", key)
			}
			if value != binding {
				return fmt.Errorf("binding mismatch: journal written for %q, this run is %q", value, binding)
			}
		}
		j.done[key] = value
	}
	return nil
}

// append writes one record and syncs it to stable storage.
func (j *Journal) append(key, value string) error {
	if _, err := j.f.WriteString(formatRecord(key, value) + "\n"); err != nil {
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	return nil
}

// Done reports whether key was recorded complete, and its value.
func (j *Journal) Done(key string) (string, bool) {
	if key == bindingKey {
		return "", false
	}
	v, ok := j.done[key]
	return v, ok
}

// Len returns the number of completed records (excluding the binding).
func (j *Journal) Len() int { return len(j.done) - 1 }

// Each calls fn for every completed record (excluding the binding) in
// sorted key order — the deterministic iteration a replaying consumer
// (the webhook dispatcher's restart) wants.
func (j *Journal) Each(fn func(key, value string)) {
	keys := make([]string, 0, len(j.done))
	for k := range j.done {
		if k != bindingKey {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, j.done[k])
	}
}

// Record marks key complete with the given value and syncs before
// returning: once Record returns, a crash cannot un-complete the key.
func (j *Journal) Record(key, value string) error {
	if key == bindingKey {
		return fmt.Errorf("resilience: journal key %q is reserved", key)
	}
	if err := j.append(key, value); err != nil {
		return err
	}
	j.done[key] = value
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
