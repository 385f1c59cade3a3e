package sim

import (
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
)

// FuzzEngine feeds arbitrary traces (truncated, empty, single-thread) and
// degenerate configurations (1 processor, tiny context caps, a cache of a
// single line) to both engines, as static runs or as dynamic
// self-scheduled ones (maxCtx/4%3 picks static, FIFO or longest-first).
// The engines must either reject the input with an error or finish —
// never hang or panic — and when they finish they must agree bit for bit.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), false, false)
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), false, false)
	// Single thread, cache of exactly one line.
	f.Add([]byte{0, 3, 128, 7, 0, 0, 129, 7}, uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), false, false)
	// Several threads ping-ponging one shared block across processors.
	f.Add([]byte{0, 1, 128, 0, 1, 1, 128, 0, 2, 1, 128, 0, 3, 1, 128, 0}, uint8(4), uint8(3), uint8(2), uint8(1), uint8(2), true, true)
	// The same ping-pong self-scheduled, FIFO with two contexts per
	// processor; then longest-first with one context and an empty thread.
	f.Add([]byte{0, 1, 128, 0, 1, 1, 128, 0, 2, 1, 128, 0, 3, 1, 128, 0}, uint8(4), uint8(1), uint8(6), uint8(1), uint8(2), false, false)
	f.Add([]byte{0, 3, 128, 0, 1, 2, 129, 0, 0, 5, 130, 0, 1, 1, 128, 0}, uint8(2), uint8(1), uint8(8), uint8(0), uint8(0), false, false)

	f.Fuzz(func(t *testing.T, data []byte, nthreads, nprocs, maxCtx, assoc, channels uint8, update, infinite bool) {
		threads := 1 + int(nthreads)%8
		tr := trace.New("fuzz", threads)
		recs := make([]*trace.Recorder, threads)
		for i := range recs {
			recs[i] = trace.NewRecorder(tr, i)
		}
		// Four bytes per reference: thread, gap, kind+address-high, address-low.
		for i := 0; i+4 <= len(data); i += 4 {
			r := recs[int(data[i])%threads]
			r.Compute(int(data[i+1]) % 64)
			addr := (uint64(data[i+2]&0x7f)<<8 | uint64(data[i+3])) * trace.WordSize
			if data[i+2]&0x80 != 0 {
				addr += trace.SharedBase
			}
			if data[i+1]&1 != 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}

		procs := 1 + int(nprocs)%8
		if procs > threads {
			procs = threads
		}
		clusters := make([][]int, procs)
		for i := 0; i < threads; i++ {
			clusters[i%procs] = append(clusters[i%procs], i)
		}
		pl := &placement.Placement{Algorithm: "FUZZ", Clusters: clusters}

		cfg := DefaultConfig(procs)
		ways := int(assoc) % 4
		cfg.Associativity = ways
		if ways == 0 {
			ways = 1
		}
		// Down to a single line: CacheSize == LineSize with ways 1.
		nsets := 1
		if len(data) > 0 {
			nsets = 1 + int(data[0]&0x3)*7
		}
		cfg.CacheSize = DefaultLineSize * ways * nsets
		cfg.MaxContexts = int(maxCtx) % 4
		cfg.NetworkChannels = int(channels) % 3
		cfg.InfiniteCache = infinite
		cfg.TrackWriteRuns = !infinite
		if update {
			cfg.Protocol = Update
		}

		var ref, fast *Result
		var rerr, ferr error
		if mode := int(maxCtx) / 4 % 3; mode == 0 {
			ref, rerr = RunEngine(tr, pl, cfg, ReferenceEngine)
			fast, ferr = RunEngine(tr, pl, cfg, FastEngine)
		} else {
			policy := SchedulePolicy(mode - 1)
			ref, rerr = runDynamicReference(tr, cfg, policy)
			fast, ferr = RunDynamic(tr, cfg, policy)
		}
		if (rerr == nil) != (ferr == nil) {
			t.Fatalf("engines disagree on validity: reference err %v, fast err %v", rerr, ferr)
		}
		if rerr != nil {
			return
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Fatalf("engines diverge: reference %+v vs fast %+v", ref.Totals(), fast.Totals())
		}
		// Conservation: every reference resolves exactly once.
		tot := fast.Totals()
		if got := tot.Hits + tot.TotalMisses() + tot.Upgrades; got != tr.TotalRefs() {
			t.Fatalf("hits+misses+upgrades = %d, want %d", got, tr.TotalRefs())
		}
	})
}
