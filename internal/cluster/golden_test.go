package cluster

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/rescache"
)

// TestShardKeyGolden pins the exact SHA-256 shard keys (and the
// rendezvous choices derived from them). The shard key is a wire-stable
// contract: every cell's cache affinity across the whole cluster hangs
// off these bytes, so an accidental change to the domain label, the
// field order, or the formatting must fail this test loudly rather than
// silently reshuffle — and cold-start — every worker's result cache.
func TestShardKeyGolden(t *testing.T) {
	p := serve.Params{Scale: 1, Seed: 1994}
	cases := []struct {
		name     string
		params   serve.Params
		app, alg string
		procs    int
		infinite bool
		want     string
	}{
		{
			name: "baseline cell", params: p,
			app: "MP3D", alg: "LOAD-BAL", procs: 4,
			want: "bcd927c80050348a8d800736925555f74cdadb84268954ee314c224897eccd44",
		},
		{
			name: "infinite cache mode changes the key", params: p,
			app: "MP3D", alg: "LOAD-BAL", procs: 4, infinite: true,
			want: "14806be521e12ed7cee4f86bbfca3b0bc67d1b443eaece6b0bd0d29c1baf2f5b",
		},
		{
			name: "params change the key", params: serve.Params{Scale: 0.25, Seed: 7},
			app: "Gauss", alg: "SHARE-ADDR", procs: 8,
			want: "090c5b4d6c491b79bb6a41361692a29d1a3ca6e6f397d4fd3abec8df03fbfe31",
		},
	}
	for _, c := range cases {
		got := CellShardKey(c.params, c.app, c.alg, c.procs, c.infinite).String()
		if got != c.want {
			t.Errorf("%s:\n  got  %s\n  want %s", c.name, got, c.want)
		}
	}
}

// TestRendezvousGolden pins the rendezvous winners for a fixed worker
// set: the routing function is part of the same affinity contract as the
// key bytes.
func TestRendezvousGolden(t *testing.T) {
	workers := []string{"w0", "w1", "w2", "w3"}
	p := serve.Params{Scale: 1, Seed: 1994}
	cases := []struct {
		app, alg string
		procs    int
		want     string
	}{
		{"MP3D", "LOAD-BAL", 4, "w1"},
		{"MP3D", "RANDOM", 4, "w2"},
		{"Gauss", "LOAD-BAL", 2, "w3"},
		{"Water", "SHARE-ADDR", 8, "w0"},
	}
	for _, c := range cases {
		key := CellShardKey(p, c.app, c.alg, c.procs, false)
		if got := pickWorker(key, workers); got != c.want {
			t.Errorf("%s/%s/p%d routed to %s, want %s", c.app, c.alg, c.procs, got, c.want)
		}
		// Order independence: rendezvous must not care how the membership
		// snapshot happens to be ordered.
		rev := []string{"w3", "w2", "w1", "w0"}
		if got := pickWorker(key, rev); got != c.want {
			t.Errorf("%s/%s/p%d order-dependent: reversed membership routed to %s", c.app, c.alg, c.procs, got)
		}
	}
	// Minimal-reshuffle property: removing a non-winning worker leaves
	// the choice intact.
	key := CellShardKey(p, "MP3D", "LOAD-BAL", 4, false)
	winner := pickWorker(key, workers)
	var without []string
	for _, w := range workers {
		if w != winner {
			without = append(without, w)
		}
	}
	reduced := append([]string{}, without[1:]...)
	if got := pickWorker(key, append(reduced, winner)); got != winner {
		t.Errorf("removing bystander %s moved the cell from %s to %s", without[0], winner, got)
	}
	if pickWorker(key, nil) != "" {
		t.Error("empty membership must route nowhere")
	}
}

// pickWorker is the rendezvous winner among ids: the worker a cell tries
// first ("" for none).
func pickWorker(key rescache.Key, ids []string) string {
	ws := make([]*worker, len(ids))
	for i, id := range ids {
		ws[i] = &worker{id: id}
	}
	rendezvousOrder(key, ws)
	if len(ws) == 0 {
		return ""
	}
	return ws[0].id
}
