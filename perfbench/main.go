// Command perfbench is the repository's benchmark of record. It drives
// the simulator through its public entry points under three workloads and
// prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (the same six names
// on every workload); with -trace 1 the run adds a traced pass and
// reports the per-layer metrics instead, after a human-readable table.
// run.py builds this program from source and runs it; BENCHMARK.json at
// the repository root lists the workloads and metrics, and README.md in
// this directory says which layer metric should move which end-to-end
// metric on which workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics every workload reports with -trace 0. An
// "op" is one HTTP request on the request workloads and one engine call
// (one simulated cell) on the engine workloads.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"sim_cycles_per_s", "cycles/s"},
}

// timedLayers are the per-layer self times; each is reported as its
// median under its own name and as its p90 under name+".p90".
var timedLayers = []spec{
	{"serve.transport_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.decode_us", "us"},
	{"serve.result_encode_us", "us"},
	{"core.resolve_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"analysis.analyze_ms", "ms"},
	{"placement.place_ms", "ms"},
	{"rescache.lookup_us", "us"},
	{"store.lookup_us", "us"},
	{"store.put_us", "us"},
	{"sim.engine_ms", "ms"},
}

// valueLayers are the per-layer rates, ratios and exact counts.
var valueLayers = []spec{
	{"rescache.hit_ratio", "ratio"},
	{"store.hit_ratio", "ratio"},
	{"sim.ns_per_ref.finite", "ns"},
	{"sim.ns_per_ref.infinite", "ns"},
	{"sim.ns_per_ref.uniform", "ns"},
	{"sim.ns_per_ref.pairwise", "ns"},
	{"sim.dynamic_ns_per_ref", "ns"},
	{"sim.exec_cycles", "cycles"},
	{"sim.refs", "count"},
	{"sim.hit_ratio", "ratio"},
	{"sim.misses.compulsory", "count"},
	{"sim.misses.intra", "count"},
	{"sim.misses.inter", "count"},
	{"sim.misses.invalidation", "count"},
	{"sim.invalidations_sent", "count"},
	{"sim.upgrades", "count"},
	{"sim.writebacks", "count"},
	{"obs.probe_overhead_pct", "%"},
	{"resilience.crosscheck_runs", "count"},
	{"resilience.crosscheck_frac", "ratio"},
	{"trace_overhead_pct", "%"},
}

// perLayer is every metric a -trace 1 run reports.
func perLayer() []spec {
	var out []spec
	for _, s := range timedLayers {
		out = append(out, s, spec{s.name + ".p90", s.unit})
	}
	return append(out, valueLayers...)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	// smoke shrinks every count (cells, fill size, repetitions) while
	// keeping the code path; the benchmark's own tests use it.
	smoke bool
	// work is a private scratch directory, removed when the run ends.
	work string
	// spansOut receives the traced run's recorded spans.
	spansOut string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int // failed or refused operations
	divergent int // operations whose output differed from the library's
	metrics   map[string]float64
	layers    *layers
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(config) (*outcome, error){
	"cold-request": runCold,
	"warm-request": runWarm,
	"engine-sweep": runEngine,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-request, warm-request or engine-sweep")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny counts on the same code path (for tests)")
	out := fs.String("out", ".bench_build", "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "perfbench-work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := config{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		smoke:    *smoke,
		work:     work,
		spansOut: filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)),
	}
	o, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := result(cfg, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result renders the final JSON line; a traced run first prints the
// per-layer table.
func result(cfg config, o *outcome, w io.Writer) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	printed := make(map[string]metric)
	if cfg.traced {
		o.layers.report(w, cfg.workload)
		vals := o.layers.values()
		for _, s := range perLayer() {
			printed[s.name] = metric{vals[s.name], s.unit}
		}
	} else {
		for _, s := range endToEnd {
			v, ok := o.metrics[s.name]
			if !ok || v <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", s.name, v)
			}
			printed[s.name] = metric{v, s.unit}
		}
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation completed in the timed phase")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.divergent == 0, o.attempted, o.failed + o.divergent, printed})
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
