package advise

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Recommendation is the advisor's answer: a placement, plus the
// cross-processor traffic accounting behind it.
type Recommendation struct {
	// Placement is the recommended clustering (Algorithm "COHERENCE").
	Placement *placement.Placement
	// CurrentCross is the cross-processor share of the pair traffic
	// under the caller's current placement (0 when none was given).
	CurrentCross uint64
	// ProposedCross is the same quantity under the recommendation.
	ProposedCross uint64
	// PredictedSavings is the predicted cycle savings of adopting the
	// recommendation: avoided cross-processor traffic times the memory
	// latency. 0 when no current placement was given or the
	// recommendation is not an improvement.
	PredictedSavings uint64
}

// Recommend clusters threads by a measured pairwise traffic matrix and
// predicts the savings of adopting the result over the caller's current
// placement (optional). memLatency is the cycle cost charged per
// avoided cross-processor coherence event.
func Recommend(pair [][]uint64, lengths []uint64, procs int, current *placement.Placement, memLatency uint64) (*Recommendation, error) {
	n := len(lengths)
	if n == 0 {
		return nil, fmt.Errorf("advise: no threads")
	}
	if len(pair) != n {
		return nil, fmt.Errorf("advise: pair matrix is %dx? for %d threads", len(pair), n)
	}
	for i, row := range pair {
		if len(row) != n {
			return nil, fmt.Errorf("advise: pair matrix row %d has %d columns, want %d", i, len(row), n)
		}
	}
	pl, err := clusterByTraffic(pair, lengths, procs)
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{
		Placement:     pl,
		ProposedCross: CrossTraffic(pair, AssignOf(pl, n)),
	}
	if current != nil {
		if err := current.Validate(n, procs); err != nil {
			return nil, fmt.Errorf("advise: current placement: %w", err)
		}
		rec.CurrentCross = CrossTraffic(pair, AssignOf(current, n))
		if rec.CurrentCross > rec.ProposedCross {
			rec.PredictedSavings = (rec.CurrentCross - rec.ProposedCross) * memLatency
		}
	}
	return rec, nil
}

// MeasurePairTraffic measures the thread-pair coherence traffic of a
// trace by a one-thread-per-processor run (the paper's §4.2 measurement
// step), returning the symmetrized matrix and the measurement Result.
// cfg.Processors is overridden to the thread count.
func MeasurePairTraffic(tr *trace.Trace, cfg sim.Config) ([][]uint64, *sim.Result, error) {
	n := tr.NumThreads()
	if n == 0 {
		return nil, nil, fmt.Errorf("advise: trace has no threads")
	}
	cfg.Processors = n
	cfg.MaxContexts = 0
	res, err := sim.Run(tr, placement.OnePerProcessor(n), cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.PairTrafficSym(), res, nil
}

// Lengths extracts per-thread dynamic lengths from a trace, the load
// measure the balanced clustering uses.
func Lengths(tr *trace.Trace) []uint64 {
	out := make([]uint64, tr.NumThreads())
	for i := range out {
		out[i] = tr.Threads[i].Instructions()
	}
	return out
}
