package rescache

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func testConfig() sim.Config { return sim.DefaultConfig(4) }

// TestKeyDeterministic: equal inputs hash to equal keys, across calls.
func TestKeyDeterministic(t *testing.T) {
	a := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig())
	b := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig())
	if a != b {
		t.Fatalf("same cell hashed to different keys: %s vs %s", a, b)
	}
	if len(a.String()) != 64 {
		t.Fatalf("key hex length = %d, want 64", len(a.String()))
	}
}

// TestKeyGolden pins KeyOf's bytes: MTS1 stores persist results under
// these addresses, so a change here would silently cold-start every
// store written before it.
func TestKeyGolden(t *testing.T) {
	const want = "691a9dc26c6f96dec12a0a8e489316e8d020a56a26f567ae49bacf2e8c204694"
	if got := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig()).String(); got != want {
		t.Errorf("KeyOf bytes moved:\n  got  %s\n  want %s", got, want)
	}
}

// TestKeySensitivity: changing any single input changes the key. A cache
// collision between distinct cells would silently serve wrong results, so
// every field of the canonical encoding is exercised.
func TestKeySensitivity(t *testing.T) {
	base := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig())
	seen := map[Key]string{base: "base"}
	add := func(name string, k Key) {
		t.Helper()
		if prev, ok := seen[k]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
	add("scale", KeyOf(0.5, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig()))
	add("seed", KeyOf(1, 1, "MP3D", "LOAD-BAL|0,1|2,3", testConfig()))
	add("app", KeyOf(1, 1994, "FFT", "LOAD-BAL|0,1|2,3", testConfig()))
	add("placement", KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,2|1,3", testConfig()))

	mutate := []func(*sim.Config){
		func(c *sim.Config) { c.Processors = 8 },
		func(c *sim.Config) { c.MaxContexts = 2 },
		func(c *sim.Config) { c.CacheSize *= 2 },
		func(c *sim.Config) { c.Associativity = 2 },
		func(c *sim.Config) { c.LineSize *= 2 },
		func(c *sim.Config) { c.HitCycles = 2 },
		func(c *sim.Config) { c.MemLatency = 100 },
		func(c *sim.Config) { c.SwitchCycles = 12 },
		func(c *sim.Config) { c.Protocol = sim.Update },
		func(c *sim.Config) { c.NetworkChannels = 4 },
		func(c *sim.Config) { c.NetworkOccupancy = 16 },
		func(c *sim.Config) { c.TrackWriteRuns = true },
		func(c *sim.Config) { c.InfiniteCache = true },
	}
	if len(mutate) != KeyConfigFields {
		t.Fatalf("test mutates %d config fields, KeyConfigFields = %d", len(mutate), KeyConfigFields)
	}
	for i, m := range mutate {
		cfg := testConfig()
		m(&cfg)
		add(reflect.TypeOf(sim.Config{}).Field(i).Name, KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", cfg))
	}
}

// TestKeyConfigFieldCount pins the canonical encoding to sim.Config's
// field list: growing Config without extending KeyOf must fail here.
func TestKeyConfigFieldCount(t *testing.T) {
	if n := reflect.TypeOf(sim.Config{}).NumField(); n != KeyConfigFields {
		t.Fatalf("sim.Config has %d fields but rescache.KeyOf encodes %d; extend the canonical encoding (and bump its version tag) before shipping", n, KeyConfigFields)
	}
}

// TestSumStringsBoundaries: the part boundaries are part of the hash, so
// ["ab","c"] and ["a","bc"] must not collide.
func TestSumStringsBoundaries(t *testing.T) {
	if SumStrings("sweep", "ab", "c") == SumStrings("sweep", "a", "bc") {
		t.Fatal("SumStrings collides across part boundaries")
	}
	if SumStrings("sweep", "a") == SumStrings("job", "a") {
		t.Fatal("SumStrings ignores its label")
	}
	if SumStrings("sweep", "a", "b") != SumStrings("sweep", "a", "b") {
		t.Fatal("SumStrings is not deterministic")
	}
}
