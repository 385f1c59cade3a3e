package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The request workloads: closed loop, this many clients (the box's core
// count), workload scale reqScale.
const (
	clients  = 2
	reqScale = 0.25
)

// reqMix is the request workloads' cell mix: five applications (Health's
// 64 threads keep placement visible; Gauss is left out because one Gauss
// placement costs ~120 ms and would swamp every other layer) x all 14
// static algorithms x 2-16 processors.
func reqMix(smoke bool) []loadgen.Cell {
	apps := []string{"LocusRoute", "MP3D", "Water", "Health", "FFT"}
	algs := core.AllAlgorithms()
	procs := []int{2, 4, 8, 16}
	if smoke {
		apps, algs, procs = apps[:2], algs[:2], procs[:2]
	}
	return loadgen.Mix(apps, algs, procs)
}

// reqBody is the POST /v1/simulate body for one cell.
func reqBody(c loadgen.Cell, seed int64) []byte {
	b, err := json.Marshal(serve.SimulateRequest{
		Params: &serve.Params{Scale: reqScale, Seed: seed},
		App:    c.App, Algorithm: c.Alg, Procs: c.Procs,
	})
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always encodes
	}
	return b
}

// server is one life of the service: default options apart from a store
// directory, on an ephemeral loopback port.
type server struct {
	st  *store.Store
	srv *serve.Server
	hs  *httptest.Server
	// scratch is a store directory of this life alone, removed at stop.
	scratch string
}

func startServer(dir string) (*server, error) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{Store: st})
	return &server{st: st, srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

func (s *server) stop() error {
	s.hs.Close()
	s.srv.Drain()
	if err := s.st.Close(); err != nil {
		return err
	}
	return os.RemoveAll(s.scratch)
}

// reply is one request as the client saw it.
type reply struct {
	seq  int // position in the workload's request sequence
	cell int
	end  time.Duration // completion, from the start of the phase
	lat  time.Duration
	ok   bool
	sum  uint64 // bodySum of the reply
}

// phase is what one closed-loop phase saw. Only the first body per cell
// is kept, so a long warm phase stays small in memory.
type phase struct {
	replies  []reply
	bodies   map[int][]byte     // first reply body per cell
	spans    map[int][]obs.Span // traced phases: each request's spans, by seq
	firstErr error
}

// load is one closed-loop phase: each client sends its next request only
// after the previous reply, until dur has passed or, with limit > 0,
// until limit requests have been sent.
type load struct {
	url    string
	dur    time.Duration
	limit  int
	first  int // sequence number of the phase's first request
	next   func(seq int) (cell int, body []byte)
	traced bool
}

// closedLoop runs one phase.
func closedLoop(hc *http.Client, l load) *phase {
	var seq atomic.Int64
	seq.Store(int64(l.first))
	per := make([]*phase, clients)
	start := time.Now()
	deadline := start.Add(l.dur)
	loadgen.Concurrent(clients, func(c int) {
		ph := &phase{bodies: make(map[int][]byte), spans: make(map[int][]obs.Span)}
		per[c] = ph
		for n := 0; ; n++ {
			i := int(seq.Add(1) - 1)
			if l.limit > 0 && i >= l.first+l.limit || l.limit == 0 && n > 0 && !time.Now().Before(deadline) {
				return
			}
			r := reply{seq: i}
			var body []byte
			r.cell, body = l.next(i)
			var tc obs.SpanContext
			if l.traced {
				tc = obs.NewTrace()
			}
			t0 := time.Now()
			resp, err := post(hc, l.url+"/v1/simulate", body, tc)
			r.lat, r.end = time.Since(t0), time.Since(start)
			if err == nil && l.traced {
				ph.spans[i], err = fetchSpans(hc, l.url, tc.Trace)
			}
			if err == nil {
				r.ok, r.sum = true, bodySum(resp)
				if ph.bodies[r.cell] == nil {
					ph.bodies[r.cell] = resp
				}
			} else if ph.firstErr == nil {
				ph.firstErr = err
			}
			ph.replies = append(ph.replies, r)
		}
	})
	all := per[0]
	for _, ph := range per[1:] {
		all.replies = append(all.replies, ph.replies...)
		for c, b := range ph.bodies {
			if all.bodies[c] == nil {
				all.bodies[c] = b
			}
		}
		for i, sp := range ph.spans {
			all.spans[i] = sp
		}
		if all.firstErr == nil {
			all.firstErr = ph.firstErr
		}
	}
	return all
}

// post sends one simulate request; any status but 200 is an error.
func post(hc *http.Client, url string, body []byte, tc obs.SpanContext) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc.Valid() {
		req.Header.Set(obs.TraceHeader, tc.HeaderValue())
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// fetchSpans reads one request's spans straight after its reply: the
// server's span store is bounded, so later traffic would evict them. The
// server records the root "simulate" span just after it releases the
// reply, so a fetch that misses it is repeated.
func fetchSpans(hc *http.Client, url, trace string) ([]obs.Span, error) {
	for attempt := 0; ; attempt++ {
		resp, err := hc.Get(url + "/v1/trace/" + trace + "?format=spans")
		if err != nil {
			return nil, err
		}
		var ts serve.TraceSpans
		err = json.NewDecoder(resp.Body).Decode(&ts)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			return nil, fmt.Errorf("trace %s: status %d", trace, resp.StatusCode)
		case err != nil:
			return nil, err
		}
		for _, sp := range ts.Spans {
			if strings.HasPrefix(sp.Name, "simulate ") {
				return ts.Spans, nil
			}
		}
		if attempt == 2 {
			return ts.Spans, nil
		}
	}
}

// bodySum hashes what must be equal in two replies for the same cell:
// the key and the result. It leaves out "cached" (a request that shared
// another's in-flight computation says false) and the per-request
// "trace".
func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	if i := bytes.Index(b, []byte(`,"cached":`)); i >= 0 {
		h.Write(b[:i])
		b = b[i:]
	}
	if i := bytes.Index(b, []byte(`"result":`)); i >= 0 {
		b = b[i:]
	}
	if i := bytes.LastIndex(b, []byte(`,"trace":`)); i >= 0 {
		b = b[:i]
	}
	h.Write(b)
	return h.Sum64()
}

// parallel runs fn(0..n-1) on clients goroutines and returns their
// errors; each goroutine stops at its first.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	loadgen.Concurrent(clients, func(w int) {
		for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
			errs[w] = fn(i)
		}
	})
	return errors.Join(errs...)
}

// checked is the outcome of comparing the replies with the library.
type checked struct {
	failed, divergent int
	resp              map[int]*serve.SimulateResponse // decoded reply per cell
}

// checkReplies decodes one kept body per cell and compares its result
// with the library's (want); every other reply for that cell must hash
// the same. It runs outside the timed phases.
func checkReplies(phases []*phase, want func(cell int) (*sim.Result, error)) (*checked, error) {
	body := make(map[int][]byte)
	var cells []int
	for _, ph := range phases {
		for c, b := range ph.bodies {
			if body[c] == nil {
				body[c] = b
				cells = append(cells, c)
			}
		}
	}
	decoded := make([]*serve.SimulateResponse, len(cells))
	equal := make([]bool, len(cells))
	err := parallel(len(cells), func(i int) error {
		var resp serve.SimulateResponse
		if err := json.Unmarshal(body[cells[i]], &resp); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		lib, err := want(cells[i])
		if err != nil {
			return fmt.Errorf("library result: %w", err)
		}
		decoded[i], equal[i] = &resp, reflect.DeepEqual(resp.Result, lib)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ck := &checked{resp: make(map[int]*serve.SimulateResponse)}
	sums := make(map[int]uint64)
	for i, c := range cells {
		ck.resp[c] = decoded[i]
		sums[c] = bodySum(body[c])
		if !equal[i] {
			ck.divergent++
		}
	}
	for _, ph := range phases {
		for _, r := range ph.replies {
			switch {
			case !r.ok:
				ck.failed++
			case r.sum != sums[r.cell]:
				ck.divergent++
			}
		}
	}
	return ck, nil
}

// windows is how many equal slices of a request phase each metric is
// measured on; the reported value is the median over the slices, so a
// burst of load from outside the benchmark moves at most one or two.
const windows = 10

// replyMetrics turns one phase of length dur into the end-to-end
// metrics. A failed request counts as taking the whole phase, over any
// limit; requests that end after dur are not counted.
func replyMetrics(ph *phase, dur time.Duration, ck *checked) map[string]float64 {
	type window struct {
		ok     int
		cycles float64
		lat    []float64
	}
	ws := make([]window, windows)
	w := dur / windows
	for _, r := range ph.replies {
		i := int(r.end / w)
		if i >= windows {
			continue
		}
		if !r.ok {
			ws[i].lat = append(ws[i].lat, ms(dur))
			continue
		}
		ws[i].ok++
		ws[i].cycles += float64(ck.resp[r.cell].Result.ExecTime)
		ws[i].lat = append(ws[i].lat, ms(r.lat))
	}
	var ops, cycles, p50, p90 []float64
	for _, x := range ws {
		ops = append(ops, float64(x.ok)/w.Seconds())
		cycles = append(cycles, x.cycles/w.Seconds())
		if len(x.lat) > 0 {
			p50 = append(p50, quantile(x.lat, 0.5))
			p90 = append(p90, quantile(x.lat, 0.9))
		}
	}
	return map[string]float64{
		"ops_per_s":        quantile(ops, 0.5),
		"op_p50_ms":        quantile(p50, 0.5),
		"op_p90_ms":        quantile(p90, 0.5),
		"sim_cycles_per_s": quantile(cycles, 0.5),
	}
}

// newHTTPClient keeps one idle connection per client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
}

// reqRun is what a request workload hands to the shared driver.
type reqRun struct {
	// start begins one server life; set-up is its median over repeated
	// starts, and the traced phase gets a life of its own.
	start func() (*server, error)
	next  func(seq int) (cell int, body []byte)
	want  func(cell int) (*sim.Result, error)
	// library times workload build, analysis and placement on the inputs
	// of a traced phase's requests (nil where those layers do not run).
	library func(lay *layers, traced *phase) error
	// countCells bounds the cells the exact sim.* counts cover, so they
	// repeat however many requests a run completes.
	countCells int
}

// runRequests is the shared timed phase, traced phase and check of the
// request workloads.
func runRequests(cfg config, rr reqRun) (*outcome, error) {
	srv, setupS, err := timeSetup(cfg.smoke, rr.start, (*server).stop)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	timed := closedLoop(hc, load{url: srv.hs.URL, dur: cfg.dur, next: rr.next})
	rss := peakRSSMB()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	phases := []*phase{timed}

	var traced *phase
	var runs, checks uint64
	var cache rescache.Stats
	var st store.Stats
	if cfg.traced {
		if srv, err = rr.start(); err != nil {
			return nil, err
		}
		traced = closedLoop(hc, load{url: srv.hs.URL, dur: cfg.dur, first: len(timed.replies), next: rr.next, traced: true})
		runs, checks = srv.srv.Guard().Stats()
		cache, st = srv.srv.CacheStats(), srv.st.Stats()
		if err := srv.stop(); err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}

	ck, err := checkReplies(phases, rr.want)
	if err != nil {
		return nil, err
	}
	o := &outcome{failed: ck.failed, divergent: ck.divergent,
		metrics: replyMetrics(timed, cfg.dur, ck), layers: newLayers()}
	for _, ph := range phases {
		o.attempted += len(ph.replies)
		if ph.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d failed requests, first: %v\n", ck.failed, ph.firstErr)
		}
	}
	o.metrics["setup_s"] = setupS
	o.metrics["peak_rss_mb"] = rss
	if !cfg.traced {
		return o, nil
	}

	lay := o.layers
	if base := o.metrics["ops_per_s"]; base > 0 {
		lay.set("trace_overhead_pct", (base-replyMetrics(traced, cfg.dur, ck)["ops_per_s"])/base*100)
	}
	lay.set("rescache.hit_ratio", cache.HitRate())
	if st.Hits+st.Misses > 0 {
		lay.set("store.hit_ratio", st.HitRate())
	}
	lay.set("resilience.crosscheck_runs", float64(checks))
	if runs > 0 {
		lay.set("resilience.crosscheck_frac", float64(checks)/float64(runs))
	}
	var engineNs, refs float64
	for _, r := range traced.replies {
		if !r.ok {
			continue
		}
		spans := traced.spans[r.seq]
		lay.spans = append(lay.spans, spans...)
		if ns := spanLayers(lay, r, spans); ns > 0 {
			engineNs += ns
			refs += float64(ck.resp[r.cell].Result.Totals().Refs)
		}
	}
	if refs > 0 {
		lay.set("sim.ns_per_ref.finite", engineNs/refs)
	}
	if err := codecLayers(cfg, lay, phases, ck, rr.next); err != nil {
		return nil, err
	}
	if rr.library != nil {
		if err := rr.library(lay, traced); err != nil {
			return nil, err
		}
	}
	var results []*sim.Result
	for _, c := range sortedCells(ck.resp) {
		if c < rr.countCells {
			results = append(results, ck.resp[c].Result)
		}
	}
	setCounts(lay, results)
	return o, lay.dump(cfg.spansOut)
}

// spanLayers reads one traced request's server spans: the "simulate"
// root, "queue wait", and the "cell" span whose self time (the span
// minus its "cache lookup", "store lookup" and "engine" children) is the
// suite resolve. It returns the engine span in nanoseconds (0 if none).
func spanLayers(lay *layers, r reply, spans []obs.Span) float64 {
	var cell *obs.Span
	for i, sp := range spans {
		switch {
		case strings.HasPrefix(sp.Name, "simulate "):
			lay.add("serve.transport_ms", ms(r.lat)-float64(sp.DurUs)/1e3)
		case sp.Name == "queue wait":
			lay.add("serve.queue_wait_ms", float64(sp.DurUs)/1e3)
		case strings.HasPrefix(sp.Name, "cell "):
			cell = &spans[i]
		}
	}
	if cell == nil {
		return 0
	}
	self, engine := cell.DurUs, 0.0
	for _, sp := range spans {
		if sp.Parent != cell.ID {
			continue
		}
		self -= sp.DurUs
		switch {
		case sp.Name == "cache lookup":
			lay.add("rescache.lookup_us", float64(sp.DurUs))
		case sp.Name == "store lookup":
			lay.add("store.lookup_us", float64(sp.DurUs))
		case strings.HasPrefix(sp.Name, "engine "):
			lay.add("sim.engine_ms", float64(sp.DurUs)/1e3)
			engine = float64(sp.DurUs) * 1e3
		}
	}
	lay.add("core.resolve_ms", float64(self)/1e3)
	return engine
}

// codecLayers times, from the driver, request decoding on the run's
// request bodies, result encoding of the decoded replies, and Store.Put
// of the encoded results into a scratch store.
func codecLayers(cfg config, lay *layers, phases []*phase, ck *checked, next func(int) (int, []byte)) error {
	const maxDecodes = 20000 // bounds the check time of a long warm run
	for _, ph := range phases {
		for _, r := range ph.replies {
			if len(lay.samples["serve.decode_us"]) == maxDecodes {
				break
			}
			_, body := next(r.seq)
			t0 := time.Now()
			if _, err := serve.DecodeSimulateRequest(bytes.NewReader(body)); err != nil {
				return fmt.Errorf("decode request: %w", err)
			}
			lay.add("serve.decode_us", us(time.Since(t0)))
		}
	}
	st, err := store.Open(store.Options{Dir: filepath.Join(cfg.work, "scratch-store")})
	if err != nil {
		return err
	}
	for _, c := range sortedCells(ck.resp) {
		resp := ck.resp[c]
		t0 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		lay.add("serve.result_encode_us", us(time.Since(t0)))

		payload, err := json.Marshal(resp.Result)
		if err != nil {
			return err
		}
		var key store.Key
		if _, err := hex.Decode(key[:], []byte(resp.Key)); err != nil {
			return fmt.Errorf("reply key %q: %w", resp.Key, err)
		}
		t0 = time.Now()
		if err := st.Put(key, payload); err != nil {
			return err
		}
		lay.add("store.put_us", us(time.Since(t0)))
	}
	return st.Close()
}

// sortedCells lists the decoded cells in order, so counts and timings
// visit them deterministically.
func sortedCells(m map[int]*serve.SimulateResponse) []int {
	cells := make([]int, 0, len(m))
	for c := range m {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	return cells
}

// suiteFor is the library path the service must agree with: a fresh
// core.Suite at the request's workload params.
func suiteFor(seed int64) *core.Suite {
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: reqScale, Seed: seed}
	return core.NewSuite(opts)
}

// runCold drives cold-request: every request carries a params.seed the
// server has never seen, so each one builds its workload, analyses and
// places it in a fresh suite, misses the result cache and the store,
// simulates (every 16th under the guard's cross-check) and writes the
// store.
func runCold(cfg config) (*outcome, error) {
	mix := reqMix(cfg.smoke)
	rng := rand.New(rand.NewSource(cfg.seed))
	var mu sync.Mutex
	var rounds [][]int // a seeded permutation of the mix per round
	cellAt := func(seq int) loadgen.Cell {
		mu.Lock()
		defer mu.Unlock()
		for len(rounds) <= seq/len(mix) {
			rounds = append(rounds, rng.Perm(len(mix)))
		}
		return mix[rounds[seq/len(mix)][seq%len(mix)]]
	}
	// Unique per request within a run, and different across run seeds.
	paramsSeed := func(seq int) int64 { return cfg.seed<<24 + int64(seq) }

	return runRequests(cfg, reqRun{
		start: func() (*server, error) {
			dir, err := os.MkdirTemp(cfg.work, "store-")
			if err != nil {
				return nil, err
			}
			s, err := startServer(dir)
			if s != nil {
				s.scratch = dir
			}
			return s, err
		},
		next: func(seq int) (int, []byte) { return seq, reqBody(cellAt(seq), paramsSeed(seq)) },
		want: func(seq int) (*sim.Result, error) {
			c := cellAt(seq)
			return suiteFor(paramsSeed(seq)).RunOne(c.App, c.Alg, c.Procs, false)
		},
		countCells: 64, // the first requests of the sequence
		library: func(lay *layers, traced *phase) error {
			const maxCells = 64 // the same inputs as the first traced requests
			for i, r := range traced.replies {
				if i == maxCells {
					break
				}
				if err := timeResolve(lay, cellAt(r.seq), paramsSeed(r.seq)); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// timeResolve times the three library calls a cold cell's resolve makes.
func timeResolve(lay *layers, c loadgen.Cell, seed int64) error {
	app, err := workload.ByName(c.App)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tr, err := app.Build(workload.Params{Scale: reqScale, Seed: seed})
	if err != nil {
		return err
	}
	tr.TotalInstructions()
	lay.add("workload.build_ms", ms(time.Since(t0)))
	t0 = time.Now()
	sharing := analysis.Analyze(tr).Sharing()
	lay.add("analysis.analyze_ms", ms(time.Since(t0)))
	alg, err := placement.ByName(c.Alg)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := alg.Place(sharing, c.Procs, seed); err != nil {
		return err
	}
	lay.add("placement.place_ms", ms(time.Since(t0)))
	return nil
}

// runWarm drives warm-request: a first server life fills the store with
// every cell of the mix once; the timed phase restarts the server over
// that store and sends rounds of the mix, so each cell's first touch is
// a store read and every later touch a result-cache hit.
func runWarm(cfg config) (*outcome, error) {
	mix := reqMix(cfg.smoke)
	bodies := make([][]byte, len(mix))
	for i, c := range mix {
		bodies[i] = reqBody(c, cfg.seed)
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(mix))
	next := func(seq int) (int, []byte) {
		c := order[seq%len(order)]
		return c, bodies[c]
	}

	dir := filepath.Join(cfg.work, "store")
	first, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	fill := closedLoop(hc, load{url: first.hs.URL, limit: len(mix), next: next})
	hc.CloseIdleConnections()
	if err := first.stop(); err != nil {
		return nil, err
	}
	if fill.firstErr != nil {
		return nil, fmt.Errorf("filling the store: %w", fill.firstErr)
	}

	suite := suiteFor(cfg.seed)
	return runRequests(cfg, reqRun{
		start:      func() (*server, error) { return startServer(dir) },
		next:       next,
		countCells: len(mix),
		want: func(cell int) (*sim.Result, error) {
			c := mix[cell]
			return suite.RunOne(c.App, c.Alg, c.Procs, false)
		},
	})
}
