package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/serve"
	"repro/internal/serve/rescache"
)

// Sharding: every sweep cell has a content address derived with the same
// rescache SHA-256 machinery that keys the workers' result caches, and
// the coordinator routes a cell to the live worker that wins
// rendezvous (highest-random-weight) hashing on that address. Two
// properties follow:
//
//   - Affinity: the same cell always prefers the same worker while
//     membership is stable, so repeated and overlapping sweeps hit that
//     worker's result cache instead of re-simulating elsewhere.
//   - Minimal reshuffle: when a worker dies, only its cells move;
//     rendezvous hashing leaves every other cell's preference intact
//     (a mod-N ring would reshuffle almost everything).
//
// A cell takes a slot on the first worker in its rendezvous order that
// has one free, so under load cells spill down their order instead of
// queueing behind a busy worker: the shard key is a cache-locality
// preference, never a correctness constraint — any worker computes the
// bit-identical result.

// shardKeyVersion is the domain-separation label folded into every shard
// key. Bumping it reshuffles every cell's placement across the cluster,
// which is why TestShardKeyGolden pins the key bytes: a silent change
// here must fail loudly, not quietly invalidate every worker's cache
// affinity.
const shardKeyVersion = "mtcoord-shard-v1"

// CellShardKey derives the routing content address of one sweep cell.
// It folds in everything that identifies the cell at the request level —
// workload params, app, placement algorithm, machine size and cache mode,
// plus the fixed rescache.EngineLabel — mirroring the inputs of the
// workers' own result-cache keys (rescache.KeyOf needs the resolved
// placement, which only the worker derives; the request-level identity
// is a strict function of these fields, so equal shard keys imply equal
// result-cache keys).
func CellShardKey(params serve.Params, app, algorithm string, procs int, infinite bool) rescache.Key {
	return rescache.SumStrings(shardKeyVersion,
		fmt.Sprintf("scale=%g", params.Scale),
		fmt.Sprintf("seed=%d", params.Seed),
		"app="+app,
		"alg="+algorithm,
		fmt.Sprintf("procs=%d", procs),
		fmt.Sprintf("infinite=%t", infinite),
		"engine="+rescache.EngineLabel,
	)
}

// shardOf is the routing address of the cell a simulate request runs:
// its request-level identity, the sweep cell's shard key.
func shardOf(req *serve.SimulateRequest) rescache.Key {
	alg := req.Algorithm
	if req.Placement != nil {
		alg = req.Placement.Algorithm
	}
	procs := req.Procs
	if req.Config != nil && req.Config.Processors > 0 {
		procs = req.Config.Processors
	}
	return CellShardKey(serve.ResolveParams(req.Params), req.App, alg, procs, req.Infinite)
}

// rendezvousScore ranks one (cell, worker) pair. The highest score among
// live workers is the cell's first choice.
func rendezvousScore(key rescache.Key, workerID string) uint64 {
	sum := rescache.SumStrings("mtcoord-rendezvous-v1", key.String(), workerID)
	return binary.BigEndian.Uint64(sum[:8])
}

// rendezvousOrder sorts workers into key's rendezvous order: highest
// score first, ties toward the lexicographically smaller ID, so the
// order never depends on how the membership snapshot was ordered. A
// proxied request tries workers in this order; a sweep cell takes a
// slot on the first that has one free.
func rendezvousOrder(key rescache.Key, ws []*worker) {
	sort.Slice(ws, func(i, k int) bool {
		si, sk := rendezvousScore(key, ws[i].id), rendezvousScore(key, ws[k].id)
		if si != sk {
			return si > sk
		}
		return ws[i].id < ws[k].id
	})
}
