// Package rescache derives the content addresses of the serving tier:
// a canonical SHA-256 hash of everything that determines a simulation
// result — workload generation parameters, the exact placement and the
// full simulator configuration (KeyOf) — and of sweep identities
// (SumStrings). Because the simulator is deterministic, two cells with
// equal keys have bit-identical results, so these keys index mtserve's
// result cache (a memo.Table), the MTS1 store and the cluster's shard
// affinity. Stats re-exports the cache counters under the name
// mtserve's callers read.
//
// Keys mirror core.Suite's exact, collision-free cell identity
// (core.PlacementKey) — never a lossy summary.
//
// rescache is inside the determinism analyzers' purview: key derivation
// must never read the wall clock or a global random source, and must
// never feed map iteration order into the hash.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/memo"
	"repro/internal/sim"
)

// Key is the canonical content address of one simulation cell.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the form the HTTP API reports.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyConfigFields is the number of sim.Config fields KeyOf folds into the
// hash. A test asserts it against reflect.TypeOf(sim.Config{}).NumField()
// so adding a Config field without extending the canonical encoding is a
// build-stopping event, not a silent cache collision.
const KeyConfigFields = 13

// EngineLabel is the engine field every content address still carries.
// Cells were once simulated on a selectable engine; "guarded", the former
// default label, is now a fixed literal so that existing MTS1 stores,
// sweep job IDs and cluster shard affinity keep their bytes.
const EngineLabel = "guarded"

// KeyOf derives the content address of one cell. Every input that can
// change the simulation result is folded into the hash in a fixed order
// with explicit field tags and NUL separators, so no two distinct cells
// can produce the same pre-image. placementKey must be an exact placement
// encoding (core.PlacementKey), not a lossy name.
func KeyOf(scale float64, seed int64, app, placementKey string, cfg sim.Config) Key {
	h := sha256.New()
	fmt.Fprintf(h, "mtserve-cell-v1\x00scale=%g\x00seed=%d\x00app=%s\x00pl=%s\x00", scale, seed, app, placementKey)
	fmt.Fprintf(h, "procs=%d\x00maxctx=%d\x00cachesize=%d\x00assoc=%d\x00line=%d\x00hit=%d\x00mem=%d\x00switch=%d\x00proto=%s\x00chans=%d\x00occ=%d\x00writeruns=%t\x00infcache=%t\x00",
		cfg.Processors, cfg.MaxContexts, cfg.CacheSize, cfg.Associativity,
		cfg.LineSize, cfg.HitCycles, cfg.MemLatency, cfg.SwitchCycles,
		cfg.Protocol, cfg.NetworkChannels, cfg.NetworkOccupancy,
		cfg.TrackWriteRuns, cfg.InfiniteCache)
	fmt.Fprintf(h, "engine=%s", EngineLabel)
	var k Key
	h.Sum(k[:0])
	return k
}

// SumStrings hashes a labeled, ordered list of strings into a Key. The
// server uses it to derive content-addressed job IDs from sweep requests:
// the same sweep resubmitted (to this server or a restarted one) maps to
// the same job. Callers must pass parts in a canonical order.
func SumStrings(label string, parts ...string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00n=%d\x00", label, len(parts))
	for _, p := range parts {
		fmt.Fprintf(h, "len=%d\x00%s\x00", len(p), p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a snapshot of mtserve's result cache counters.
type Stats = memo.Stats
