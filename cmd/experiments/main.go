// Command experiments regenerates every table and figure of the paper's
// evaluation: Tables 1-5 and Figures 2-5.
//
// Usage:
//
//	experiments -all
//	experiments -table 4
//	experiments -figure 2
//	experiments -all -scale 0.5 -procs 2,4,8,16
//	experiments -all -journal sweep.journal            # journal progress
//	experiments -all -journal sweep.journal -resume    # skip finished sections
//	experiments -all -timeout 30m -maxsteps 2000000000 # watchdogs
//
// Exit codes: 0 success, 1 error, 2 usage.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/workload"
)

// emitter prints every artifact to the sweep's output stream and, when an
// output directory is set, also writes <name>.txt, <name>.csv and (for
// charts) <name>.svg. It keeps a running CRC32 of the rendered text so
// each journal record carries a content checksum of its section.
type emitter struct {
	outdir string
	out    io.Writer
	crc    uint32
}

// emit renders one artifact, folds it into the section checksum, and
// forwards it to the output stream.
func (e *emitter) emit(render func(w io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, buf.Bytes())
	_, err := e.out.Write(buf.Bytes())
	return err
}

func (e *emitter) save(name, ext string, write func(f *os.File) error) error {
	if e.outdir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(e.outdir, name+ext))
	if err != nil {
		return err
	}
	if werr := write(f); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

func (e *emitter) table(name string, t *report.Table) error {
	if err := e.emit(t.Render); err != nil {
		return err
	}
	if err := e.save(name, ".txt", func(f *os.File) error { return t.Render(f) }); err != nil {
		return err
	}
	return e.save(name, ".csv", func(f *os.File) error { return t.WriteCSV(f) })
}

func (e *emitter) chart(name string, c *report.BarChart) error {
	if err := e.emit(c.Render); err != nil {
		return err
	}
	if err := e.save(name, ".txt", func(f *os.File) error { return c.Render(f) }); err != nil {
		return err
	}
	if err := e.save(name, ".csv", func(f *os.File) error { return c.WriteCSV(f) }); err != nil {
		return err
	}
	return e.save(name, ".svg", func(f *os.File) error { return c.WriteSVG(f) })
}

// curSection names the section currently regenerating, for the
// -progress heartbeat.
var curSection atomic.Value

// errInterrupted is returned by the sweepCfg.interruptAfter test hook,
// which simulates a kill between sections for the kill-and-resume test.
var errInterrupted = errors.New("sweep interrupted (test hook)")

// sweepCfg carries one sweep invocation's full configuration.
type sweepCfg struct {
	// Selection.
	all           bool
	table, figure int
	ablation      string
	jsonPath      string

	// Workload and sweep shape.
	scale   float64
	seed    int64
	procs   string
	fig5app string
	outdir  string

	// Resilience.
	journalPath string        // journal completed sections here ("" = off)
	resume      bool          // skip sections the journal records complete
	timeout     time.Duration // cancel all simulations after this long (0 = off)
	maxSteps    uint64        // per-simulation event budget (0 = unbounded)

	// remote, when set, sends every static-placement simulation to an
	// mtserve instance at this base URL instead of running it in-process.
	// Dynamic-scheduling cells and ad-hoc synthetic workloads (not in the
	// server's catalog) still run locally.
	remote string

	// Plumbing (zero values mean stdout / quiet logger).
	out io.Writer
	log *slog.Logger

	// interruptAfter, when positive, aborts the sweep after that many
	// sections complete. Test-only: it simulates a mid-sweep kill.
	interruptAfter int
}

// binding is the configuration fingerprint a journal is bound to: every
// knob that changes section *content*. Selection flags are deliberately
// excluded — resuming a -all sweep from a -table 1 journal is legitimate
// (the same Table 1 would be regenerated either way).
func (cfg *sweepCfg) binding() string {
	return fmt.Sprintf("scale=%g seed=%d procs=%s fig5app=%s", cfg.scale, cfg.seed, cfg.procs, cfg.fig5app)
}

func main() {
	var (
		all      = flag.Bool("all", false, "run every table and figure")
		table    = flag.Int("table", 0, "run one table (1-5)")
		figure   = flag.Int("figure", 0, "run one figure (2-5)")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Int64("seed", 1994, "generation seed")
		procs    = flag.String("procs", "2,4,8,16", "processor counts, comma separated")
		fig5     = flag.String("fig5app", "MP3D", "application for the Figure 5 miss-component graph")
		abl      = flag.String("ablation", "", "ablation study: assoc, cachesize, contexts, uniformity, writeruns, protocol, latency, contention, dynamic or all")
		outdir   = flag.String("outdir", "", "also write each artifact as .txt/.csv/.svg into this directory")
		jsonF    = flag.String("json", "", "regenerate all tables/figures and save them as one JSON bundle")
		journal  = flag.String("journal", "", "journal completed sections to this file (crash-safe)")
		resume   = flag.Bool("resume", false, "skip sections the -journal file records as complete")
		timeout  = flag.Duration("timeout", 0, "abort all in-flight simulations after this long (e.g. 30m)")
		maxSteps = flag.Uint64("maxsteps", 0, "abort any single simulation after this many events (livelock watchdog)")
		remote   = flag.String("remote", "", "run simulations on the mtserve instance at this base URL (e.g. http://127.0.0.1:8080)")
		bsim     = flag.String("benchsim", "", "benchmark the simulation engine (bare, probed, memoized and guarded sweeps) and save the numbers as JSON")
		badvise  = flag.String("advise", "", "evaluate online adaptive placement (static-vs-online kernel sweep + phased crossover) and save the gated report as JSON")
		timeline = flag.String("timeline", "", "simulate one representative run and write its Perfetto timeline JSON to this file")
		progress = flag.Duration("progress", 0, "log a progress heartbeat at this interval (e.g. 10s) while sweeps run")
		verbose  = flag.Bool("v", false, "verbose diagnostics")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, *verbose)
	fail := func(err error) {
		os.Exit(obs.Fail(log, err, flag.Usage))
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Info("wrote CPU profile", "path", *cpuprof)
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				log.Error(err.Error())
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Error(err.Error())
				return
			}
			log.Info("wrote heap profile", "path", *memprof)
		}()
	}

	curSection.Store("starting")
	stop := obs.StartHeartbeat(log, *progress, func() string {
		s, _ := curSection.Load().(string)
		return s
	})
	defer stop()

	var err error
	switch {
	case *bsim != "":
		err = benchSim(*scale, *seed, *procs, *bsim)
	case *badvise != "":
		err = benchAdvise(*scale, *seed, *badvise)
	case *timeline != "":
		err = timelineRun(*scale, *seed, *procs, *timeline, log)
	default:
		err = run(sweepCfg{
			all: *all, table: *table, figure: *figure, ablation: *abl, jsonPath: *jsonF,
			scale: *scale, seed: *seed, procs: *procs, fig5app: *fig5, outdir: *outdir,
			journalPath: *journal, resume: *resume,
			timeout: *timeout, maxSteps: *maxSteps,
			remote: *remote,
			log:    log,
		})
	}
	if err != nil {
		stop()
		fail(err)
	}
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, obs.Usagef("bad processor count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// run regenerates the selected sections.
func run(cfg sweepCfg) error {
	if cfg.out == nil {
		cfg.out = os.Stdout
	}
	if cfg.log == nil {
		cfg.log = obs.NewLogger(io.Discard, false)
	}
	pcs, err := parseProcs(cfg.procs)
	if err != nil {
		return err
	}
	if cfg.resume && cfg.journalPath == "" {
		return obs.Usagef("-resume requires -journal")
	}
	if cfg.outdir != "" {
		if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
			return err
		}
	}

	var j *resilience.Journal
	if cfg.journalPath != "" {
		if !cfg.resume {
			// A fresh run must start a fresh journal, or stale records
			// from an earlier sweep would silently skip live sections.
			if err := os.Remove(cfg.journalPath); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		j, err = resilience.OpenJournal(cfg.journalPath, cfg.binding())
		if err != nil {
			return err
		}
		defer j.Close()
	}

	em := &emitter{outdir: cfg.outdir, out: cfg.out}
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: cfg.scale, Seed: cfg.seed}
	opts.ProcCounts = pcs

	if cfg.remote != "" && (cfg.maxSteps > 0 || cfg.timeout > 0) {
		// The server owns its watchdogs; layering the local ones on top
		// would double-guard remote cells.
		return obs.Usagef("-remote cannot be combined with -maxsteps or -timeout (configure them on mtserve instead)")
	}
	if cfg.remote != "" {
		opts.Runner = remoteRunner(cfg.remote, opts.Params)
	}

	if cfg.maxSteps > 0 || cfg.timeout > 0 {
		var cancel atomic.Bool
		if cfg.timeout > 0 {
			timer := time.AfterFunc(cfg.timeout, func() {
				cancel.Store(true)
				cfg.log.Error(fmt.Sprintf("timeout: cancelling all simulations after %s", cfg.timeout))
			})
			defer timer.Stop()
		}
		guard := &resilience.EngineGuard{
			Guard: sim.Guard{MaxSteps: cfg.maxSteps, Cancel: &cancel},
		}
		opts.Runner = guard.Run
		opts.DynRunner = guard.RunDynamic
	}
	s := core.NewSuite(opts)

	completed := 0
	section := func(name string, f func() error) error {
		if j != nil {
			if sum, ok := j.Done(name); ok {
				fmt.Fprintf(cfg.out, "[%s already complete (%s), skipped]\n\n", name, sum)
				return nil
			}
		}
		curSection.Store(name)
		em.crc = 0
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(cfg.out, "[%s regenerated in %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
		if j != nil {
			if err := j.Record(name, fmt.Sprintf("crc32:%08x", em.crc)); err != nil {
				return err
			}
		}
		completed++
		if cfg.interruptAfter > 0 && completed >= cfg.interruptAfter {
			return errInterrupted
		}
		return nil
	}

	want := func(t, f int) bool {
		return cfg.all || (t != 0 && cfg.table == t) || (f != 0 && cfg.figure == f)
	}
	ran := false

	if want(1, 0) {
		ran = true
		if err := section("Table 1", func() error {
			rows, err := s.Table1()
			if err != nil {
				return err
			}
			return em.table("table1", core.Table1Report(rows))
		}); err != nil {
			return err
		}
	}
	if want(2, 0) {
		ran = true
		if err := section("Table 2", func() error {
			rows, err := s.Table2()
			if err != nil {
				return err
			}
			return em.table("table2", core.Table2Report(rows))
		}); err != nil {
			return err
		}
	}
	if want(3, 0) {
		ran = true
		if err := section("Table 3", func() error {
			return em.table("table3", core.Table3Report())
		}); err != nil {
			return err
		}
	}
	for _, fig := range []struct {
		n   int
		app string
	}{{2, "LocusRoute"}, {3, "FFT"}, {4, "Barnes-Hut"}} {
		if !want(0, fig.n) {
			continue
		}
		ran = true
		fig := fig
		if err := section(fmt.Sprintf("Figure %d", fig.n), func() error {
			f, err := s.ExecutionFigure(fig.app)
			if err != nil {
				return err
			}
			return em.chart(fmt.Sprintf("figure%d", fig.n),
				f.Chart(fmt.Sprintf("Figure %d: Execution time for %s", fig.n, fig.app)))
		}); err != nil {
			return err
		}
	}
	if want(0, 5) {
		ran = true
		if err := section("Figure 5", func() error {
			cells, err := s.MissComponentFigure(cfg.fig5app)
			if err != nil {
				return err
			}
			return em.table("figure5", core.MissComponentReport(cfg.fig5app, cells))
		}); err != nil {
			return err
		}
	}
	if want(4, 0) {
		ran = true
		if err := section("Table 4", func() error {
			rows, err := s.Table4()
			if err != nil {
				return err
			}
			return em.table("table4", core.Table4Report(rows))
		}); err != nil {
			return err
		}
	}
	if want(5, 0) {
		ran = true
		if err := section("Table 5", func() error {
			cells, err := s.Table5()
			if err != nil {
				return err
			}
			return em.table("table5", core.Table5Report(cells, opts.ProcCounts))
		}); err != nil {
			return err
		}
	}
	wantAbl := func(name string) bool {
		return cfg.ablation == name || cfg.ablation == "all"
	}
	if wantAbl("assoc") {
		ran = true
		if err := section("Ablation: associativity", func() error {
			rows, err := s.AssociativitySweep("Patch", "LOAD-BAL", 16, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			return em.table("ablation_assoc", core.AssocReport("Patch", "LOAD-BAL", 16, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("cachesize") {
		ran = true
		if err := section("Ablation: cache size", func() error {
			sizes := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10, 8 << 20}
			rows, err := s.CacheSizeSweep("Water", "LOAD-BAL", 8, sizes)
			if err != nil {
				return err
			}
			return em.table("ablation_cachesize", core.CacheSizeReport("Water", "LOAD-BAL", 8, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("contexts") {
		ran = true
		if err := section("Ablation: hardware contexts", func() error {
			rows, err := s.ContextSweep("Water", 4, []int{1, 2, 4, 8, 0})
			if err != nil {
				return err
			}
			return em.table("ablation_contexts", core.ContextReport("Water", 4, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("uniformity") {
		ran = true
		if err := section("Ablation: sharing uniformity", func() error {
			rows, err := s.UniformitySweep([]float64{1.0, 0.75, 0.5, 0.25, 0.0})
			if err != nil {
				return err
			}
			return em.table("ablation_uniformity", core.UniformityReport(rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("protocol") {
		ran = true
		if err := section("Ablation: coherence protocol", func() error {
			rows, err := s.ProtocolComparison("Fullconn", 8, []string{"LOAD-BAL", "SHARE-REFS", "RANDOM"})
			if err != nil {
				return err
			}
			return em.table("ablation_protocol", core.ProtocolReport("Fullconn", 8, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("latency") {
		ran = true
		if err := section("Ablation: memory latency", func() error {
			rows, err := s.LatencySweep("FFT", 8, []uint64{10, 25, 50, 100, 200})
			if err != nil {
				return err
			}
			return em.table("ablation_latency", core.LatencyReport("FFT", 8, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("contention") {
		ran = true
		if err := section("Ablation: interconnect contention", func() error {
			rows, err := s.ContentionSweep("MP3D", "LOAD-BAL", 16, []int{0, 1, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			return em.table("ablation_contention", core.ContentionReport("MP3D", "LOAD-BAL", 16, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("dynamic") {
		ran = true
		if err := section("Ablation: dynamic self-scheduling", func() error {
			apps := []string{"LocusRoute", "FFT", "Health", "Gauss"}
			rows, err := s.DynamicComparison(apps, 8, 2)
			if err != nil {
				return err
			}
			return em.table("ablation_dynamic", core.DynamicReport(8, 2, rows))
		}); err != nil {
			return err
		}
	}
	if wantAbl("writeruns") {
		ran = true
		if err := section("Write-run study", func() error {
			rows, err := s.WriteRunStudy(workload.Names())
			if err != nil {
				return err
			}
			return em.table("ablation_writeruns", core.WriteRunReport(rows))
		}); err != nil {
			return err
		}
	}
	if cfg.jsonPath != "" {
		ran = true
		if err := section("JSON bundle", func() error {
			b, err := s.CollectResults(cfg.fig5app)
			if err != nil {
				return err
			}
			if err := b.SaveJSON(cfg.jsonPath); err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "wrote %s\n", cfg.jsonPath)
			return nil
		}); err != nil {
			return err
		}
	}
	if !ran {
		return obs.Usagef("nothing selected: use -all, -table N, -figure N, -ablation NAME, -json FILE, -benchsim FILE, -advise FILE or -timeline FILE")
	}
	return nil
}
