// Package sim is the trace-driven multithreaded multiprocessor simulator
// of §3.2 of the paper: processors with multiple hardware contexts and
// round-robin context switching on cache misses, per-processor direct-
// mapped caches with full miss-component classification, a distributed
// directory-based invalidation coherence protocol, and a multipath
// interconnect modeled as a flat memory latency (no contention).
//
// The simulator is deterministic: given the same trace, placement and
// configuration it produces identical results.
package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Architectural defaults from Table 3 of the paper.
const (
	// DefaultLineSize is the cache block size in bytes.
	DefaultLineSize = 32
	// DefaultHitCycles is the cache hit time.
	DefaultHitCycles = 1
	// DefaultMemLatency approximates the average memory latency of a
	// moderately loaded Alewife-style multiprocessor.
	DefaultMemLatency = 50
	// DefaultSwitchCycles is the context switch time — draining the
	// execution pipeline.
	DefaultSwitchCycles = 6
	// DefaultCacheSize is the per-processor cache capacity. The paper
	// uses 32 KB for the coarse-grain programs (plus Health and FFT) and
	// 64 KB for the other medium-grain programs; workloads carry their
	// preferred size.
	DefaultCacheSize = 32 << 10
	// InfiniteCacheSize is the 8 MB capacity the paper uses to
	// approximate an infinite cache (§4.3) — large enough to eliminate
	// all capacity and conflict misses for the scaled workloads.
	InfiniteCacheSize = 8 << 20
)

// Config describes one simulated machine.
type Config struct {
	// Processors is the number of processors. Each holds as many
	// hardware contexts as the placement assigns it threads (the paper
	// assumes all threads are loaded into hardware contexts), unless
	// MaxContexts caps them.
	Processors int
	// MaxContexts, when positive, caps the hardware contexts per
	// processor: threads beyond the cap wait until a completing thread
	// frees a context (Table 3 lists the number of hardware contexts as
	// a simulator input). Zero means one context per assigned thread.
	MaxContexts int
	// CacheSize is the per-processor data cache capacity in bytes.
	CacheSize int
	// Associativity is the cache's set associativity with LRU
	// replacement. Zero or one is direct-mapped — the paper's
	// configuration; the paper suggests higher associativity as the fix
	// for the inter-thread cache thrashing it observed (§4.1).
	Associativity int
	// LineSize is the cache block size in bytes: a power of two, at
	// least trace.WordSize.
	LineSize int
	// HitCycles is the cache hit time in cycles.
	HitCycles uint64
	// MemLatency is the cost in cycles of any memory transaction that
	// crosses the interconnect (misses and ownership upgrades).
	MemLatency uint64
	// SwitchCycles is the pipeline-drain cost charged at every blocking
	// transaction before another context may issue.
	SwitchCycles uint64
	// Protocol selects the coherence protocol: the paper's
	// directory-based write-invalidate (default) or a write-update
	// extension in which writers propagate values to sharers instead of
	// invalidating them.
	Protocol Protocol
	// NetworkChannels, when positive, models interconnect contention:
	// every memory transaction must acquire one of this many channels
	// for NetworkOccupancy cycles, queueing (FCFS) when all are busy.
	// Zero reproduces the paper's uncontended multipath network.
	NetworkChannels int
	// NetworkOccupancy is the channel holding time per transaction when
	// NetworkChannels is positive (default DefaultNetworkOccupancy).
	NetworkOccupancy uint64
	// TrackWriteRuns enables the write-run / migratory-data measurement
	// of §4.2 (footnote 2); results appear in Result.WriteRuns.
	TrackWriteRuns bool
	// InfiniteCache disables capacity/conflict behaviour entirely: the
	// cache never evicts. Equivalent to a cache larger than the
	// workload's footprint; see also InfiniteCacheSize for the paper's
	// literal 8 MB variant.
	InfiniteCache bool
}

// Protocol identifies a coherence protocol.
type Protocol int

const (
	// Invalidate is the paper's protocol: a write removes remote copies.
	Invalidate Protocol = iota
	// Update is the extension protocol: a write propagates the new value
	// to remote copies, which stay valid. Invalidation misses disappear
	// at the price of update messages on every write to shared data.
	Update
)

// String names the protocol.
func (p Protocol) String() string {
	if p == Update {
		return "update"
	}
	return "invalidate"
}

// DefaultNetworkOccupancy is the channel holding time of one transaction
// when contention is modeled: one line transfer on the interconnect.
const DefaultNetworkOccupancy = 8

// DefaultConfig returns the paper's architectural parameters for the given
// processor count.
func DefaultConfig(procs int) Config {
	return Config{
		Processors:   procs,
		CacheSize:    DefaultCacheSize,
		LineSize:     DefaultLineSize,
		HitCycles:    DefaultHitCycles,
		MemLatency:   DefaultMemLatency,
		SwitchCycles: DefaultSwitchCycles,
	}
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	if c.Processors <= 0 {
		return fmt.Errorf("sim: need at least one processor, got %d", c.Processors)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("sim: line size %d is not a positive power of two", c.LineSize)
	}
	if c.LineSize < trace.WordSize {
		// A sub-word line holds less than one reference and only
		// multiplies the set count (and the memory a run may take).
		return fmt.Errorf("sim: line size %d is smaller than the %d-byte word", c.LineSize, trace.WordSize)
	}
	if c.Associativity < 0 {
		return fmt.Errorf("sim: negative associativity %d", c.Associativity)
	}
	if c.MaxContexts < 0 {
		return fmt.Errorf("sim: negative context cap %d", c.MaxContexts)
	}
	if c.Protocol != Invalidate && c.Protocol != Update {
		return fmt.Errorf("sim: unknown protocol %d", c.Protocol)
	}
	if c.NetworkChannels < 0 {
		return fmt.Errorf("sim: negative channel count %d", c.NetworkChannels)
	}
	if !c.InfiniteCache {
		ways := c.Associativity
		if ways == 0 {
			ways = 1
		}
		if c.CacheSize < c.LineSize*ways {
			return fmt.Errorf("sim: cache size %d cannot hold one %d-way set of %d-byte lines", c.CacheSize, ways, c.LineSize)
		}
		if c.CacheSize%(c.LineSize*ways) != 0 {
			return fmt.Errorf("sim: cache size %d not a multiple of set size %d", c.CacheSize, c.LineSize*ways)
		}
	}
	if c.HitCycles == 0 {
		return fmt.Errorf("sim: hit time must be at least one cycle")
	}
	if c.MemLatency == 0 {
		return fmt.Errorf("sim: memory latency must be at least one cycle")
	}
	if max(c.HitCycles, c.MemLatency, c.SwitchCycles, c.NetworkOccupancy) > maxCycles {
		return fmt.Errorf("sim: hit %d, memory %d, switch %d and channel %d cycles: none may exceed 2^62",
			c.HitCycles, c.MemLatency, c.SwitchCycles, c.NetworkOccupancy)
	}
	return nil
}

// maxCycles bounds every cycle parameter: the four above, and the online
// interval and penalty. With event times below 2^63 (maxEventTime), no
// sum of a checked time and two parameters wraps uint64 before the
// engines check it.
const maxCycles = 1 << 62

// lineShift returns log2(LineSize).
func (c Config) lineShift() uint {
	s := uint(0)
	for 1<<s < c.LineSize {
		s++
	}
	return s
}
