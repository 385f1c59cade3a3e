package cluster

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/resilience"
	"repro/internal/serve/rescache"
)

// Crash recovery reuses the MTJ1 journal from internal/resilience. The
// coordinator records three kinds of keys:
//
//	job/<id>            accepted sweep (value: "<cells> guarded", the
//	                    fixed rescache.EngineLabel)
//	cell/<id>/<idx>     finished cell (value: its result-cache key)
//	done/<id>           terminal job (value: final status)
//
// A restarted coordinator replays the journal: every job/ without a
// matching done/ comes back as a retriable record, so a polling client
// resubmits the identical content-addressed sweep — the same recovery
// path a graceful drain uses. The journaled cell/ keys are kept and
// cross-checked when the rerun harvests those cells again: a result-key
// mismatch means pre- and post-crash executions diverged, the one
// corruption class idempotent resubmission cannot absorb, and the job
// fails loudly instead of returning silently wrong data.

// coordBinding ties a journal file to this protocol version.
const coordBinding = "mtcoord-v1"

// coordJournal is the mutex-wrapped journal plus the replayed cell keys.
type coordJournal struct {
	mu sync.Mutex
	j  *resilience.Journal
	// prior maps "cell/<job>/<idx>" to the pre-crash result key.
	prior map[string]string
}

// openCoordJournal opens (or creates) the journal and returns the IDs of
// jobs interrupted by a crash: accepted, never completed.
func openCoordJournal(path string) (*coordJournal, []string, error) {
	j, err := resilience.OpenJournal(path, coordBinding)
	if err != nil {
		return nil, nil, err
	}
	cj := &coordJournal{j: j, prior: make(map[string]string)}
	var interrupted []string
	j.Each(func(key, value string) {
		if id, ok := strings.CutPrefix(key, "job/"); ok {
			if _, done := j.Done("done/" + id); !done {
				interrupted = append(interrupted, id)
			}
		}
		if strings.HasPrefix(key, "cell/") {
			cj.prior[key] = value
		}
	})
	return cj, interrupted, nil
}

// jobAccepted records a sweep acceptance (idempotent per ID).
func (cj *coordJournal) jobAccepted(id string, cells int) error {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	key := "job/" + id
	if _, ok := cj.j.Done(key); ok {
		return nil
	}
	return cj.j.Record(key, fmt.Sprintf("%d %s", cells, rescache.EngineLabel))
}

// cellDone records one finished cell's result key, cross-checking any
// pre-crash record for the same cell. A mismatch is the divergence error.
func (cj *coordJournal) cellDone(jobID string, idx int, resultKey string) error {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	key := fmt.Sprintf("cell/%s/%d", jobID, idx)
	if prev, ok := cj.prior[key]; ok && prev != resultKey {
		return fmt.Errorf("journal divergence: cell %s re-executed to key %s, journal says %s", key, resultKey, prev)
	}
	if _, ok := cj.j.Done(key); ok {
		return nil // already journaled this run (duplicate harvest)
	}
	return cj.j.Record(key, resultKey)
}

// jobDone records a job's terminal status.
func (cj *coordJournal) jobDone(id, status string) error {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	key := "done/" + id
	if _, ok := cj.j.Done(key); ok {
		return nil
	}
	return cj.j.Record(key, status)
}

func (cj *coordJournal) close() {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.j.Close()
}
