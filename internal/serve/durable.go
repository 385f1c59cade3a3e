package serve

// The durable tier glue: how a daemon speaks to the append-only result
// store (internal/store) and the retrying webhook dispatcher
// (internal/serve/webhook). Both are optional — a nil Options.Store or
// Options.Webhooks turns each path into a no-op — and both are owned
// by the caller (a daemon opens them with OpenDurable before NewServer
// and closes them after Drain). OpenDurable and Durable are the parts
// the coordinator shares.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/rescache"
	"repro/internal/serve/webhook"
	"repro/internal/sim"
	"repro/internal/store"
)

// storedCellVersion versions the store envelope; a decoder seeing a
// different version treats the record as a miss (recompute), never an
// error — old segments stay readable as "cold", not "corrupt".
const storedCellVersion = 1

// storedCell is the JSON envelope of one result in the durable store,
// keyed by the cell's rescache content address. Key repeats the
// address inside the payload so a record can never be served under the
// wrong identity even if an index pointed at the wrong bytes.
type storedCell struct {
	V      int             `json:"v"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// encodeStoredCell wraps an already-marshaled result for the store.
func encodeStoredCell(keyHex string, result any) ([]byte, error) {
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	return json.Marshal(storedCell{V: storedCellVersion, Key: keyHex, Result: raw})
}

// decodeStoredCell unwraps a store payload, verifying version and key
// identity. dst receives the inner result.
func decodeStoredCell(keyHex string, payload []byte, dst any) error {
	var sc storedCell
	if err := json.Unmarshal(payload, &sc); err != nil {
		return err
	}
	if sc.V != storedCellVersion {
		return fmt.Errorf("stored cell version %d, want %d", sc.V, storedCellVersion)
	}
	if sc.Key != keyHex {
		return fmt.Errorf("stored cell key %s under address %s", sc.Key, keyHex)
	}
	return json.Unmarshal(sc.Result, dst)
}

// LoadResult reads the simulation result stored under a cell's content
// address. A miss is (nil, nil). A record that is present but unusable —
// decode failure, version skew, key mismatch — is (nil, err), which
// callers treat as a miss after logging: the store's own CRC layer has
// already quarantined anything physically corrupt. mtserve and
// experiments -store-dir read cells through this one envelope, so a
// directory either of them filled serves the other.
func LoadResult(st *store.Store, key rescache.Key) (*sim.Result, error) {
	payload, ok := st.Get(store.Key(key))
	if !ok {
		return nil, nil
	}
	var res sim.Result
	if err := decodeStoredCell(key.String(), payload, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SaveResult queues res under its cell's content address in the
// store's write-behind queue.
func SaveResult(st *store.Store, key rescache.Key, res *sim.Result) error {
	payload, err := encodeStoredCell(key.String(), res)
	if err != nil {
		return err
	}
	return st.Put(store.Key(key), payload)
}

// storeGet probes the durable tier for a cell result. Any damage is a
// miss, never an error: the caller recomputes.
func (s *Server) storeGet(key rescache.Key, sctx obs.SpanContext) *sim.Result {
	if s.opts.Store == nil {
		return nil
	}
	lookupStart := time.Now()
	res, err := LoadResult(s.opts.Store, key)
	if s.spans != nil && sctx.Valid() {
		s.spans.AddSpan(sctx, s.opts.ServiceName, "store lookup", lookupStart, time.Now())
	}
	if err != nil && s.opts.Log != nil {
		s.opts.Log.Warn("store record unusable, recomputing", "key", key.String(), "err", err.Error())
	}
	return res
}

// storePut writes one fresh result behind the in-memory cache. Write
// failures are counted by the store and logged, never surfaced to the
// request — the store is a cache of deterministic computations.
func (s *Server) storePut(key rescache.Key, res *sim.Result) {
	if s.opts.Store == nil || res == nil {
		return
	}
	if err := SaveResult(s.opts.Store, key, res); err != nil && s.opts.Log != nil {
		s.opts.Log.Warn("store put refused", "key", key.String(), "err", err.Error())
	}
}

// WebhookLedger is the webhook delivery ledger's file name inside a
// daemon's -store-dir.
const WebhookLedger = "webhooks.mtj"

// OpenDurable opens a daemon's durable directory: the result store in
// dir and the webhook ledger at dir/WebhookLedger. An empty dir opens no
// store and an ephemeral dispatcher. The returned closer runs after
// Drain: it gives in-flight deliveries a moment to land (anything still
// pending stays in the ledger for the next life), then closes the
// dispatcher and the store, which flushes and seals every result.
func OpenDurable(dir string, log *slog.Logger) (*store.Store, *webhook.Dispatcher, func(), error) {
	var st *store.Store
	ledger := ""
	if dir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: dir})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("opening result store: %w", err)
		}
		s := st.Stats()
		log.Info("result store open", "dir", dir,
			"entries", s.Entries, "sealed_segments", s.SealedSegments,
			"quarantined", s.Quarantined, "truncated_tails", s.TruncatedTails)
		ledger = filepath.Join(dir, WebhookLedger)
	}
	wh, err := webhook.New(webhook.Options{JournalPath: ledger})
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return nil, nil, nil, fmt.Errorf("opening webhook dispatcher: %w", err)
	}
	return st, wh, func() {
		wh.Flush(2 * time.Second)
		if err := wh.Close(); err != nil {
			log.Warn("webhook dispatcher close", "err", err.Error())
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Warn("result store close", "err", err.Error())
			}
		}
	}, nil
}

// WebhookDeliveryID derives the content-addressed delivery ID for one
// (job, url, terminal status) triple. The same terminal transition
// re-announced — a restarted daemon re-walking its jobs, an identical
// sweep resubmitted after completion — maps to the same ID, which the
// dispatcher's ledger deduplicates; receivers see each terminal state
// at most once per outcome.
func WebhookDeliveryID(jobID, url, status string) string {
	sum := rescache.SumStrings("mtsim-webhook-v1", jobID, url, status)
	return "wh-" + sum.String()[:16]
}

// Durable is the optional durable tier under either daemon: the result
// store and the webhook dispatcher, each nil when off (the daemon owns
// both lifecycles). It fills the /healthz blocks, projects the tier's
// own counters into /metrics, and announces terminal job states.
type Durable struct {
	store    *store.Store
	webhooks *webhook.Dispatcher
	log      *slog.Logger

	storeHits        *obs.Metric
	storeMisses      *obs.Metric
	storePuts        *obs.Metric
	storeQuarantined *obs.Metric
	storeSegments    *obs.Metric
	webhookPending   *obs.Metric
	webhookDelivered *obs.Metric
	webhookFailed    *obs.Metric
	webhookRetries   *obs.Metric
}

// NewDurable registers the tier's series under prefix in set.
func NewDurable(set *obs.MetricSet, prefix string, st *store.Store, wh *webhook.Dispatcher, log *slog.Logger) *Durable {
	return &Durable{
		store:    st,
		webhooks: wh,
		log:      log,

		storeHits:        set.Counter(prefix+"_store_hits_total", "durable result store hits"),
		storeMisses:      set.Counter(prefix+"_store_misses_total", "durable result store misses"),
		storePuts:        set.Counter(prefix+"_store_puts_total", "results written to the durable store"),
		storeQuarantined: set.Counter(prefix+"_store_quarantined_total", "store segments quarantined for corruption"),
		storeSegments:    set.Gauge(prefix+"_store_sealed_segments", "sealed segments in the durable store"),
		webhookPending:   set.Gauge(prefix+"_webhook_pending", "webhook deliveries awaiting a terminal outcome"),
		webhookDelivered: set.Counter(prefix+"_webhook_delivered_total", "webhook deliveries acknowledged 2xx"),
		webhookFailed:    set.Counter(prefix+"_webhook_failed_total", "webhook deliveries failed after exhausting attempts"),
		webhookRetries:   set.Counter(prefix+"_webhook_retries_total", "webhook delivery attempts beyond the first"),
	}
}

// Health returns the /healthz store and webhook blocks, nil for the
// parts that are off.
func (d *Durable) Health() (st *StoreHealth, wh *WebhookHealth) {
	if d.store != nil {
		ss := d.store.Stats()
		st = &StoreHealth{
			Entries:        ss.Entries,
			SealedSegments: ss.SealedSegments,
			Hits:           ss.Hits,
			Misses:         ss.Misses,
			Puts:           ss.Puts,
			Quarantined:    ss.Quarantined,
			HitRate:        ss.HitRate(),
		}
	}
	if d.webhooks != nil {
		ws := d.webhooks.Stats()
		wh = &WebhookHealth{
			Pending:   ws.Pending,
			Delivered: ws.Delivered,
			Failed:    ws.Failed,
			Retries:   ws.Retries,
		}
	}
	return st, wh
}

// SyncMetrics mirrors the store's and dispatcher's own counters into
// /metrics at scrape time (they count authoritatively; metrics are a
// projection, the same contract as the result cache).
func (d *Durable) SyncMetrics() {
	if d.store != nil {
		ss := d.store.Stats()
		d.storeHits.Set(int64(ss.Hits))
		d.storeMisses.Set(int64(ss.Misses))
		d.storePuts.Set(int64(ss.Puts))
		d.storeQuarantined.Set(int64(ss.Quarantined))
		d.storeSegments.Set(int64(ss.SealedSegments))
	}
	if d.webhooks != nil {
		ws := d.webhooks.Stats()
		d.webhookPending.Set(int64(ws.Pending))
		d.webhookDelivered.Set(int64(ws.Delivered))
		d.webhookFailed.Set(int64(ws.Failed))
		d.webhookRetries.Set(int64(ws.Retries))
	}
}

// Notify enqueues the terminal-state webhook for a job submitted with a
// webhook_url (url is "" for none). The body is the JobEvent wire form —
// the same JSON an SSE subscriber would have received as the final
// event.
func (d *Durable) Notify(jobID, url string, st JobStatus) {
	if d.webhooks == nil || url == "" {
		return
	}
	body, err := json.Marshal(JobEventOf(st))
	if err != nil {
		return
	}
	id := WebhookDeliveryID(jobID, url, st.Status)
	if err := d.webhooks.Enqueue(id, url, body); err != nil && d.log != nil {
		d.log.Warn("webhook enqueue failed", "job", jobID, "err", err.Error())
	}
}
