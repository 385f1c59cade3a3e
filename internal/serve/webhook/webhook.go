// Package webhook is the serving tier's retrying delivery engine: when
// a sweep is submitted with a webhook_url, the daemon POSTs the job's
// terminal state to that URL — and keeps its promise across endpoint
// flaps and its own restarts.
//
// Durability: every accepted delivery is recorded in a ledger (an MTJ1
// journal from internal/resilience; the daemons keep it at
// <store-dir>/webhooks.mtj) as pending/<id> before the first attempt,
// and as done/<id> after the terminal outcome (delivered, or failed
// after exhausting attempts). A restarted daemon replays the ledger:
// pending deliveries without a done record resume retrying, and
// re-enqueueing an already-done delivery is a no-op — an idempotent
// receiver sees zero duplicate terminal deliveries across restarts. The
// ledger is the journal's only user: unlike the result store, it must
// enumerate its pending records and must never drop one.
//
// Retrying: attempts run on the shared internal/retry core —
// exponential backoff with jitter (decorrelating a herd of failed
// deliveries), Retry-After honored as a floor, bounded attempts, and a
// per-endpoint-host circuit breaker so a dead endpoint costs one probe
// per cooldown instead of a connect timeout per pending delivery.
//
// A single dispatcher goroutine owns the schedule; all shared state is
// guarded by one mutex and HTTP attempts run outside it.
package webhook

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/retry"
)

// journalBinding identifies a webhook journal; OpenJournal refuses to
// replay a journal written by a different subsystem.
const journalBinding = "mtserve-webhooks-v1"

// DeliveryHeader carries the delivery ID on every attempt so idempotent
// receivers can deduplicate redeliveries.
const DeliveryHeader = "Mtsim-Delivery"

// maxBodyBytes bounds one delivery body; webhooks carry job summaries,
// not results.
const maxBodyBytes = 1 << 20

// Options configures New. Zero values get defaults.
type Options struct {
	// JournalPath persists delivery state across restarts. Empty means
	// ephemeral (tests only; pending deliveries die with the process).
	JournalPath string
	// Policy is the backoff schedule (retry.Policy defaults apply).
	Policy retry.Policy
	// BreakerThreshold consecutive failures open an endpoint's breaker.
	// Default 3.
	BreakerThreshold int
	// BreakerCooldown is the open period. Default 30s.
	BreakerCooldown time.Duration
	// Client performs the HTTP POSTs. Default: 10s-timeout client.
	Client *http.Client
	// Now supplies the clock (tests). Default time.Now.
	Now func() time.Time
	// JitterUnit supplies backoff jitter in [0,1) (tests). Default: a
	// process-seeded PRNG — delivery pacing, not simulation state, so
	// nondeterminism here is wanted.
	JitterUnit func() float64
}

// Stats is a point-in-time snapshot of dispatcher effectiveness.
type Stats struct {
	Pending      int    `json:"pending"`
	Attempts     uint64 `json:"attempts"`
	Delivered    uint64 `json:"delivered"`
	Failed       uint64 `json:"failed"`
	Retries      uint64 `json:"retries"`
	Deduped      uint64 `json:"deduped"`
	BreakerWaits uint64 `json:"breaker_waits"`
}

// delivery is one pending webhook.
type delivery struct {
	id       string
	url      string
	body     []byte
	attempts int
	due      time.Time
	lastErr  string
}

// journalRecord is the JSON value of a pending/<id> journal record.
type journalRecord struct {
	URL  string `json:"url"`
	Body string `json:"body"` // base64
}

// Dispatcher delivers webhooks with journaled at-least-once semantics
// and deduplicated terminal outcomes. Safe for concurrent use.
type Dispatcher struct {
	opts Options

	mu       sync.Mutex
	pending  map[string]*delivery
	done     map[string]string
	breakers map[string]*retry.Breaker
	journal  *resilience.Journal
	closed   bool

	attempts     uint64
	delivered    uint64
	failed       uint64
	retries      uint64
	deduped      uint64
	breakerWaits uint64

	wake   chan struct{}
	stop   chan struct{}
	doneCh chan struct{}
}

// New opens the dispatcher, replaying the journal at opts.JournalPath
// (deliveries journaled pending but not done resume retrying
// immediately) and starting the delivery goroutine.
func New(opts Options) (*Dispatcher, error) {
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 30 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.JitterUnit == nil {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		var rngMu sync.Mutex
		opts.JitterUnit = func() float64 {
			rngMu.Lock()
			defer rngMu.Unlock()
			return rng.Float64()
		}
	}

	d := &Dispatcher{
		opts:     opts,
		pending:  make(map[string]*delivery),
		done:     make(map[string]string),
		breakers: make(map[string]*retry.Breaker),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	if opts.JournalPath != "" {
		j, err := resilience.OpenJournal(opts.JournalPath, journalBinding)
		if err != nil {
			return nil, fmt.Errorf("webhook: %w", err)
		}
		d.journal = j
		d.replay()
	}
	go d.run()
	return d, nil
}

// replay rebuilds pending/done state from the journal. Runs before the
// dispatcher goroutine starts.
func (d *Dispatcher) replay() {
	now := d.opts.Now()
	d.journal.Each(func(key, value string) {
		if id, ok := cutPrefix(key, "done/"); ok {
			d.done[id] = value
			return
		}
		id, ok := cutPrefix(key, "pending/")
		if !ok {
			return
		}
		var rec journalRecord
		if json.Unmarshal([]byte(value), &rec) != nil {
			return
		}
		body, err := base64.StdEncoding.DecodeString(rec.Body)
		if err != nil {
			return
		}
		d.pending[id] = &delivery{id: id, url: rec.URL, body: body, due: now}
	})
	// A done record supersedes its pending record (both are present for
	// every completed delivery; the journal is append-only).
	for id := range d.done {
		delete(d.pending, id)
	}
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

// Enqueue accepts one delivery: POST body (JSON) to rawURL, identified
// by id. Duplicate IDs — already pending, or already terminally
// delivered/failed, including across restarts via the journal — are
// dropped. The delivery is journaled before Enqueue returns, so once
// accepted it survives a crash.
func (d *Dispatcher) Enqueue(id, rawURL string, body []byte) error {
	if id == "" {
		return fmt.Errorf("webhook: empty delivery id")
	}
	if len(body) > maxBodyBytes {
		return fmt.Errorf("webhook: body %d bytes exceeds limit %d", len(body), maxBodyBytes)
	}
	if _, err := url.Parse(rawURL); err != nil {
		return fmt.Errorf("webhook: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("webhook: dispatcher closed")
	}
	if _, dup := d.pending[id]; dup {
		d.deduped++
		return nil
	}
	if _, dup := d.done[id]; dup {
		d.deduped++
		return nil
	}
	if d.journal != nil {
		rec, err := json.Marshal(journalRecord{URL: rawURL, Body: base64.StdEncoding.EncodeToString(body)})
		if err != nil {
			return fmt.Errorf("webhook: %w", err)
		}
		if err := d.journal.Record("pending/"+id, string(rec)); err != nil {
			return err
		}
	}
	d.pending[id] = &delivery{id: id, url: rawURL, body: append([]byte(nil), body...), due: d.opts.Now()}
	select {
	case d.wake <- struct{}{}:
	default:
	}
	return nil
}

// run is the dispatcher goroutine: pick the next due delivery, attempt
// it, record the outcome, sleep until the next due time.
func (d *Dispatcher) run() {
	defer close(d.doneCh)
	for {
		// Non-blocking stop check: a due delivery must not starve
		// shutdown (attempt is a no-op once closed, so without this the
		// loop would spin on it forever).
		select {
		case <-d.stop:
			return
		default:
		}
		dl, wait, ok := d.next()
		if !ok {
			select {
			case <-d.stop:
				return
			case <-d.wake:
			}
			continue
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-d.stop:
				t.Stop()
				return
			case <-d.wake:
				t.Stop()
				continue
			case <-t.C:
			}
		}
		d.attempt(dl)
	}
}

// next returns the earliest-due pending delivery (ties broken by id for
// a deterministic schedule) and how long until it is due.
func (d *Dispatcher) next() (*delivery, time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.pending))
	for id := range d.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var best *delivery
	for _, id := range ids {
		dl := d.pending[id]
		if best == nil || dl.due.Before(best.due) {
			best = dl
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, best.due.Sub(d.opts.Now()), true
}

// attempt performs one HTTP POST and applies the outcome: success
// journals done and retires the delivery; failure reschedules with
// backoff or, after the attempt budget, journals a terminal failure.
// A breaker-open endpoint is rescheduled without consuming an attempt.
func (d *Dispatcher) attempt(dl *delivery) {
	now := d.opts.Now()

	d.mu.Lock()
	if _, still := d.pending[dl.id]; !still || d.closed {
		d.mu.Unlock()
		return
	}
	br := d.breakerLocked(dl.url)
	if !br.Allow(now) {
		d.breakerWaits++
		dl.due = now.Add(d.opts.BreakerCooldown / 4)
		d.mu.Unlock()
		return
	}
	d.attempts++
	body := dl.body
	target := dl.url
	id := dl.id
	d.mu.Unlock()

	status, retryAfter, err := d.post(target, id, body)

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, still := d.pending[dl.id]; !still {
		return
	}
	if err == nil && status >= 200 && status < 300 {
		br.Success()
		d.delivered++
		d.retire(dl.id, "delivered")
		return
	}
	br.Failure(d.opts.Now())
	dl.attempts++
	if err != nil {
		dl.lastErr = err.Error()
	} else {
		dl.lastErr = fmt.Sprintf("endpoint returned %d", status)
	}
	if dl.attempts >= d.opts.Policy.Attempts() {
		d.failed++
		d.retire(dl.id, fmt.Sprintf("failed after %d attempts: %s", dl.attempts, dl.lastErr))
		return
	}
	d.retries++
	dl.due = d.opts.Now().Add(d.opts.Policy.Delay(dl.attempts-1, retryAfter, d.opts.JitterUnit()))
}

// post performs one delivery attempt outside the dispatcher lock.
func (d *Dispatcher) post(target, id string, body []byte) (status int, retryAfter time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeliveryHeader, id)
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if ra, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After"), d.opts.Now()); ok {
		retryAfter = ra
	}
	return resp.StatusCode, retryAfter, nil
}

// retire records a delivery's terminal outcome. Caller holds mu.
func (d *Dispatcher) retire(id, outcome string) {
	if d.journal != nil {
		// Journal append failure leaves the delivery pending: redelivery
		// beats a lost outcome, and the receiver holds the dedup header.
		if err := d.journal.Record("done/"+id, outcome); err != nil {
			return
		}
	}
	d.done[id] = outcome
	delete(d.pending, id)
}

// breakerLocked returns the breaker for a URL's host. Caller holds mu.
func (d *Dispatcher) breakerLocked(rawURL string) *retry.Breaker {
	host := rawURL
	if u, err := url.Parse(rawURL); err == nil && u.Host != "" {
		host = u.Host
	}
	br, ok := d.breakers[host]
	if !ok {
		br = retry.NewBreaker(d.opts.BreakerThreshold, d.opts.BreakerCooldown)
		d.breakers[host] = br
	}
	return br
}

// Flush blocks until every currently-pending delivery has reached a
// terminal outcome, or the timeout expires. Tests and graceful drains
// use it; the dispatcher keeps running either way.
func (d *Dispatcher) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		d.mu.Lock()
		n := len(d.pending)
		d.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Pending returns the number of deliveries awaiting a terminal outcome.
func (d *Dispatcher) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Outcome reports a delivery's terminal outcome, if it has one.
func (d *Dispatcher) Outcome(id string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.done[id]
	return v, ok
}

// Stats snapshots the dispatcher counters.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Pending:      len(d.pending),
		Attempts:     d.attempts,
		Delivered:    d.delivered,
		Failed:       d.failed,
		Retries:      d.retries,
		Deduped:      d.deduped,
		BreakerWaits: d.breakerWaits,
	}
}

// Close stops the dispatcher goroutine and closes the journal. Pending
// deliveries stay journaled; a dispatcher reopened on the same journal
// resumes them. Idempotent.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.stop)
	d.mu.Unlock()
	<-d.doneCh

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.journal != nil {
		return d.journal.Close()
	}
	return nil
}
