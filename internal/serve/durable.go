package serve

// The durable tier glue: how a daemon speaks to the append-only result
// store (internal/store). The store is optional — a nil Options.Store
// turns every store path into a no-op — and owned by the caller (a
// daemon opens it with OpenDurable before NewServer and closes it after
// Drain). OpenDurable, RunDaemon and Durable are the parts the
// coordinator shares.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/rescache"
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
// address, or nil on a miss. A record that is present but unusable —
// decode failure, version skew, key mismatch — is logged and read as a
// miss, so the caller recomputes: the store's own CRC layer has already
// quarantined anything physically corrupt. mtserve and experiments
// -store-dir read and write cells through this one pair, so a directory
// either of them filled serves the other.
func LoadResult(st *store.Store, key rescache.Key, log *slog.Logger) *sim.Result {
	payload, ok := st.Get(store.Key(key))
	if !ok {
		return nil
	}
	var res sim.Result
	if err := decodeStoredCell(key.String(), payload, &res); err != nil {
		log.Warn("store record unusable, recomputing", "key", key.String(), "err", err.Error())
		return nil
	}
	return &res
}

// SaveResult queues res under its cell's content address in the
// store's write-behind queue. A refused write is logged, never
// returned: the store is a cache of deterministic computations.
func SaveResult(st *store.Store, key rescache.Key, res *sim.Result, log *slog.Logger) {
	payload, err := encodeStoredCell(key.String(), res)
	if err == nil {
		err = st.Put(store.Key(key), payload)
	}
	if err != nil {
		log.Warn("store put refused", "key", key.String(), "err", err.Error())
	}
}

// OpenDurable opens a daemon's durable directory: the result store in
// dir. An empty dir opens no store and returns a nil store. The
// returned closer runs after Drain: it closes the store, which flushes
// and seals every result.
func OpenDurable(dir string, log *slog.Logger) (*store.Store, func(), error) {
	if dir == "" {
		return nil, func() {}, nil
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, nil, fmt.Errorf("opening result store: %w", err)
	}
	s := st.Stats()
	log.Info("result store open", "dir", dir,
		"entries", s.Entries, "sealed_segments", s.SealedSegments,
		"quarantined", s.Quarantined, "truncated_tails", s.TruncatedTails)
	return st, func() {
		if err := st.Close(); err != nil {
			log.Warn("result store close", "err", err.Error())
		}
	}, nil
}

// RunDaemon serves h on the bound listener ln until SIGTERM/SIGINT or a
// listener failure, then shuts the daemon down in one order: drain
// finishes or hands back the daemon's work, closeDurable flushes and
// seals its store, and the listener stops last, so clients can observe
// their jobs' final state until the very end. A failed listener drains
// and closes exactly as a signal does, so no write-behind record is
// lost; only the exit code differs. name prefixes the "listening" and
// "exited cleanly" log lines. It returns the process exit code.
func RunDaemon(log *slog.Logger, name string, ln net.Listener, h http.Handler, drain, closeDurable func()) int {
	hs := &http.Server{Handler: h}
	log.Info(name+" listening", "addr", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	code := obs.CodeOK
	select {
	case sig := <-sigc:
		log.Info("draining on signal", "signal", fmt.Sprint(sig))
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error(err.Error())
			code = obs.CodeError
		}
	}

	drain()
	closeDurable()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)

	if code != obs.CodeOK {
		return code
	}
	log.Info(name + " exited cleanly")
	return obs.CodeOK
}

// Durable is the optional durable tier under either daemon: the result
// store, nil when off (the daemon owns its lifecycle). It fills the
// /healthz store block and projects the store's own counters into
// /metrics.
type Durable struct {
	store *store.Store

	storeHits        *obs.Metric
	storeMisses      *obs.Metric
	storePuts        *obs.Metric
	storeQuarantined *obs.Metric
	storeSegments    *obs.Metric
}

// NewDurable registers the tier's series under prefix in set.
func NewDurable(set *obs.MetricSet, prefix string, st *store.Store) *Durable {
	return &Durable{
		store: st,

		storeHits:        set.Counter(prefix+"_store_hits_total", "durable result store hits"),
		storeMisses:      set.Counter(prefix+"_store_misses_total", "durable result store misses"),
		storePuts:        set.Counter(prefix+"_store_puts_total", "results written to the durable store"),
		storeQuarantined: set.Counter(prefix+"_store_quarantined_total", "store segments quarantined for corruption"),
		storeSegments:    set.Gauge(prefix+"_store_sealed_segments", "sealed segments in the durable store"),
	}
}

// Health returns the /healthz store block, nil when the store is off.
func (d *Durable) Health() *StoreHealth {
	if d.store == nil {
		return nil
	}
	ss := d.store.Stats()
	return &StoreHealth{
		Entries:        ss.Entries,
		SealedSegments: ss.SealedSegments,
		Hits:           ss.Hits,
		Misses:         ss.Misses,
		Puts:           ss.Puts,
		PendingWrites:  ss.PendingWrites,
		Quarantined:    ss.Quarantined,
		HitRate:        ss.HitRate(),
	}
}

// SyncMetrics mirrors the store's own counters into /metrics at scrape
// time (the store counts authoritatively; metrics are a projection, the
// same contract as the result cache).
func (d *Durable) SyncMetrics() {
	if d.store == nil {
		return
	}
	ss := d.store.Stats()
	d.storeHits.Set(int64(ss.Hits))
	d.storeMisses.Set(int64(ss.Misses))
	d.storePuts.Set(int64(ss.Puts))
	d.storeQuarantined.Set(int64(ss.Quarantined))
	d.storeSegments.Set(int64(ss.SealedSegments))
}
