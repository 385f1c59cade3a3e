// Command mtplace computes thread placement maps: which threads should be
// co-located on which processor, under any of the paper's algorithms.
//
// Usage:
//
//	mtplace -algs                 # list algorithms
//	mtplace -app Water -alg SHARE-REFS -procs 4
//	mtplace -app FFT -procs 8     # all algorithms, with load statistics
//
// The paper's algorithms place through core.Suite, as experiments and
// mtserve place theirs, so one cell gets one map everywhere: -seed is
// the workload generation seed, and RANDOM takes the Suite's per-cell
// seed. -ext adds KL-SHARE, placed from the Suite's sharing data.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		listAlgs = flag.Bool("algs", false, "list placement algorithms and exit")
		app      = flag.String("app", "", "application name")
		alg      = flag.String("alg", "", "algorithm (default: all)")
		procs    = flag.Int("procs", 4, "number of processors")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Int64("seed", 1994, "workload generation seed (RANDOM takes the Suite's per-cell seed)")
		show     = flag.Bool("map", false, "print the full thread->processor map")
		ext      = flag.Bool("ext", false, "include extension algorithms (KL-SHARE)")
	)
	flag.Parse()
	if err := run(os.Stdout, *listAlgs, *app, *alg, *procs, *scale, *seed, *show, *ext); err != nil {
		os.Exit(obs.Fail(obs.NewLogger(os.Stderr, false), err, flag.Usage))
	}
}

func run(out io.Writer, listAlgs bool, app, alg string, procs int, scale float64, seed int64, show, ext bool) error {
	if listAlgs {
		t := &report.Table{
			Title:   "Placement algorithms (paper §2)",
			Columns: []string{"Name", "Sharing-based"},
		}
		for _, a := range placement.All() {
			sb := "no"
			if a.SharingBased {
				sb = "yes"
			}
			t.AddRow(a.Name, sb)
		}
		return t.Render(out)
	}
	if app == "" {
		return obs.Usagef("need -app (or -algs)")
	}
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: scale, Seed: seed}
	suite := core.NewSuite(opts)
	d, err := suite.Sharing(app)
	if err != nil {
		return err
	}

	names := placement.Names()
	var exts []placement.Algorithm
	if ext {
		exts = placement.Extensions()
	}
	if alg != "" {
		isAlg := func(a placement.Algorithm) bool { return a.Name == alg }
		if _, err := placement.ByName(alg); err == nil {
			names, exts = []string{alg}, nil
		} else if i := slices.IndexFunc(exts, isAlg); i >= 0 {
			names, exts = nil, exts[i:i+1]
		} else {
			return err
		}
	}
	var pls []*placement.Placement
	for _, name := range names {
		pl, err := suite.Place(app, name, procs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		pls = append(pls, pl)
	}
	// The Suite places the paper's algorithms only; an extension takes
	// its sharing data and no seed.
	for _, pa := range exts {
		pl, err := pa.Place(d, procs, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", pa.Name, err)
		}
		pls = append(pls, pl)
	}

	t := &report.Table{
		Title:   fmt.Sprintf("Placements for %s on %d processors", app, procs),
		Columns: []string{"Algorithm", "Thread-balanced", "Load imbalance", "Max load", "Min load"},
	}
	for _, pl := range pls {
		loads := pl.Loads(d.Lengths)
		min, max := loads[0], loads[0]
		for _, l := range loads {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		tb := "no"
		if pl.ThreadBalanced() {
			tb = "yes"
		}
		t.AddRow(pl.Algorithm, tb, report.Pct(pl.LoadImbalance(d.Lengths), 1),
			fmt.Sprint(max), fmt.Sprint(min))
		if show {
			fmt.Fprintf(out, "%s\n", pl)
		}
	}
	return t.Render(out)
}
