package expt

import (
	"fmt"
	"sync"

	"freshcache/internal/centrality"
	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives trace generation and workloads.
	Seed int64
	// Quick trims sweeps to a couple of points (used by the benchmark
	// harness and smoke tests); the full sweep reproduces the evaluation.
	Quick bool
	// Parallel bounds the sweep runner's worker pool; the effective pool
	// is min(GOMAXPROCS, Parallel), 0 meaning GOMAXPROCS. Results are
	// byte-identical regardless of the value.
	Parallel int
	// Replicates overrides the per-cell replicate count of every sweep
	// (0 = each experiment's default: 1 for the paper sweeps, 2–3 for the
	// variance-prone extension experiments). With more than one replicate,
	// swept tables report mean±stderr cells.
	Replicates int
	// Stats, when non-nil, accumulates per-run execution statistics
	// (events processed, transmissions by kind, wall time) across the
	// experiment's simulation runs. It must be safe for concurrent use;
	// metrics.NewRunStats is.
	Stats *metrics.RunStats
	// Obs, when non-nil, collects per-run event traces, registry metrics
	// and per-scheme histogram roll-ups (the `-obs` flag). Nil means
	// observability off: the hot paths then see nil traces/registries and
	// record nothing.
	Obs *obs.Observer
	// Timings includes wall-clock timing columns in tables that have them
	// (E10). Off by default so the quick-suite output is byte-identical
	// across machines and worker counts with no carve-outs.
	Timings bool
	// Journal, when non-nil, is the shared per-cell checkpoint journal:
	// sweeps append completed cells and replay matching ones on resume.
	Journal *Journal
	// Ledger, when non-nil, accounts cell dispositions and collects the
	// permanent-failure roster across the run (manifest provenance and
	// the CLI's exit status are built from it).
	Ledger *Ledger
	// Retries is the per-cell retry budget for transient failures.
	Retries int
	// KeepGoing runs sweeps in degradation mode: cell failures no longer
	// abort the grid; failed cells become explicit NA table holes.
	KeepGoing bool
	// ReferenceScheduler runs every cell on the single-heap reference
	// event core instead of the two-stream scheduler. Differential
	// determinism tests only — it is strictly slower.
	ReferenceScheduler bool
	// Costs, when non-nil, collects per-cell cost attribution (wall time,
	// attempts, single-worker alloc deltas, optional CPU profiles) across
	// every sweep for the cross-run results store.
	Costs *CellCosts
	// RateBacking forces the engine's contact-rate representation for
	// every run (dense matrix vs sorted neighbor lists). The zero value
	// picks automatically by node count; the explicit settings exist for
	// the sparse-vs-dense differential tests.
	RateBacking centrality.Backing
}

// record folds one run's result into the optional stats accumulator.
func (o Options) record(r metrics.Result) {
	if o.Stats != nil {
		o.Stats.Record(r)
	}
}

// sweep builds the worker-pool sweep for one experiment grid, threading
// the run options' seed, parallelism and replicate override through.
func (o Options) sweep(id string, presets []string, points int, schemes []string) Sweep {
	return Sweep{
		Experiment: id,
		Presets:    presets,
		Points:     points,
		Schemes:    schemes,
		Replicates: o.Replicates,
		Parallel:   o.Parallel,
		BaseSeed:   o.Seed,
		Obs:        o.Obs,
		Journal:    o.Journal,
		Ledger:     o.Ledger,
		Retries:    o.Retries,
		KeepGoing:  o.KeepGoing,
		Costs:      o.Costs,
	}
}

// cellLabel names one sweep cell's run trace. Labels are unique across a
// suite run (the grid coordinates are), which the observer's deterministic
// flush order relies on.
func cellLabel(c Cell) string {
	return fmt.Sprintf("%s/%s/p%02d/%s/r%d", c.Experiment, c.Preset, c.Point, c.Scheme, c.Replicate)
}

// runScenario runs one labelled scenario with the options' observability
// attached: the run gets its own event trace, lineage, timeline and the
// shared registry, and a successful result is folded into Stats and the
// per-scheme roll-ups. Failed runs commit nothing, so exports only carry
// completed cells.
func (o Options) runScenario(label string, sc Scenario, scheme core.Scheme, tr *trace.Trace) (metrics.Result, *core.Engine, error) {
	run := o.Obs.OpenRun(label, scheme.Name())
	sc.Obs = run.Trace
	sc.Metrics = run.Metrics
	sc.Lineage = run.Lineage
	sc.Timeline = run.Timeline
	sc.TimelineTick = run.TimelineTick
	res, eng, err := sc.RunOnTrace(scheme, tr)
	if err != nil {
		return res, eng, err
	}
	o.record(res)
	run.Commit(res)
	return res, eng, nil
}

// Experiment is one reproducible unit of the evaluation: it regenerates
// the data behind one table or figure.
type Experiment struct {
	ID            string
	Title         string
	PaperAnalogue string
	Run           func(opts Options) ([]*Table, error)
}

// figureSchemes are the protocols shown in the figures, in reporting
// order. The ablation variants appear separately in E9.
func figureSchemes() []string {
	return []string{"norefresh", "direct", "hierarchical-norep", "hierarchical", "epidemic"}
}

// presets returns the evaluation traces, possibly trimmed by Quick.
func presets(opts Options) []string {
	if opts.Quick {
		return []string{"infocom-like"}
	}
	return []string{"reality-like", "infocom-like"}
}

// genTrace returns one preset trace for the experiment's seed, generated
// once per process via the shared cache (traces are immutable, so sweeps
// and successive experiments share them freely). The trace seed is the
// namespaced replicate-0 derivation, so single-run experiments observe the
// same trace as replicate 0 of every sweep.
func genTrace(preset string, seed int64) (*trace.Trace, error) {
	return sharedTraces.Get(preset, TraceSeedFor(seed, 0))
}

// genTraceCompiled is genTrace plus the shared compiled contact timeline.
func genTraceCompiled(preset string, seed int64) (*trace.Trace, []eventsim.StaticEvent, error) {
	return sharedTraces.GetCompiled(preset, TraceSeedFor(seed, 0))
}

// reusePool recycles worker-local engine state (simulator storage, scheme
// scratch arenas, plan buffers) across the sweep cells a worker runs
// back-to-back. Cells finish extracting their metrics before the Reuse
// returns to the pool, so a recycled bundle never aliases a live run.
//
// A plain free list (not sync.Pool) on purpose: it never drops bundles on
// GC, so the allocation count of a sequential sweep is exactly one bundle
// — deterministic, which the CI bench gate relies on. The list never
// holds more bundles than the peak worker count.
var reusePool struct {
	mu   sync.Mutex
	free []*core.Reuse
}

func getReuse() *core.Reuse {
	reusePool.mu.Lock()
	defer reusePool.mu.Unlock()
	if n := len(reusePool.free); n > 0 {
		r := reusePool.free[n-1]
		reusePool.free = reusePool.free[:n-1]
		return r
	}
	return core.NewReuse()
}

func putReuse(r *core.Reuse) {
	reusePool.mu.Lock()
	defer reusePool.mu.Unlock()
	reusePool.free = append(reusePool.free, r)
}

// refreshSweep returns the refresh-interval sweep appropriate for a
// trace's density (the paper picks trace-appropriate ranges too).
func refreshSweep(preset string, quick bool) []float64 {
	var hours []float64
	switch preset {
	case "reality-like":
		hours = []float64{2, 4, 8, 16, 24}
	default: // infocom-like: a 4-day dense trace
		hours = []float64{1, 2, 4, 8}
	}
	if quick {
		hours = hours[:2]
	}
	out := make([]float64, len(hours))
	for i, h := range hours {
		out[i] = h * mobility.Hour
	}
	return out
}

// All returns the full experiment registry in ID order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Trace summary statistics", PaperAnalogue: "Table 1", Run: runE1},
		{ID: "E2", Title: "Cache freshness ratio vs refresh interval", PaperAnalogue: "freshness figure", Run: runE2},
		{ID: "E3", Title: "Validity of data access vs query rate", PaperAnalogue: "data-access figure", Run: runE3},
		{ID: "E4", Title: "Freshness vs number of caching nodes", PaperAnalogue: "caching-nodes figure", Run: runE4},
		{ID: "E5", Title: "Refresh overhead per generated version", PaperAnalogue: "overhead figure", Run: runE5},
		{ID: "E6", Title: "Refresh delay CDF", PaperAnalogue: "delay figure", Run: runE6},
		{ID: "E7", Title: "Probabilistic replication: analysis vs measurement", PaperAnalogue: "analysis validation", Run: runE7},
		{ID: "E8", Title: "Impact of the freshness requirement window", PaperAnalogue: "requirement figure", Run: runE8},
		{ID: "E9", Title: "Ablation: hierarchy and replication in isolation", PaperAnalogue: "design discussion", Run: runE9},
		{ID: "E10", Title: "Scalability with network size", PaperAnalogue: "methodology", Run: runE10},
		{ID: "E11", Title: "Robustness to churn and message loss", PaperAnalogue: "extension", Run: runE11},
		{ID: "E12", Title: "Oracle vs distributed rate knowledge", PaperAnalogue: "extension", Run: runE12},
		{ID: "E13", Title: "Extended baseline panel (spray, random relays)", PaperAnalogue: "extension", Run: runE13},
		{ID: "E14", Title: "Adapting to mobility drift via periodic rebuild", PaperAnalogue: "extension", Run: runE14},
		{ID: "E15", Title: "Caching-node placement policies", PaperAnalogue: "extension", Run: runE15},
		{ID: "E16", Title: "Impact of cache capacity", PaperAnalogue: "extension", Run: runE16},
		{ID: "E17", Title: "Analytical forecast vs measurement", PaperAnalogue: "analysis validation (k-hop)", Run: runE17},
		{ID: "E18", Title: "Query delegation: relayed data access", PaperAnalogue: "extension", Run: runE18},
		{ID: "E19", Title: "Cache freshness over time", PaperAnalogue: "freshness time-series figure", Run: runE19},
		{ID: "E20", Title: "Hierarchy fan-out ablation", PaperAnalogue: "design-choice ablation", Run: runE20},
		{ID: "E21", Title: "Large-N community trace through the full pipeline", PaperAnalogue: "scalability extension", Run: runE21},
	}
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
}

func runE1(opts Options) ([]*Table, error) {
	t := &Table{
		ID: "E1", Title: "Trace summary statistics",
		Header: []string{"trace", "nodes", "hours", "contacts", "meetingPairs", "pairCoverage", "contacts/pair", "meanPairRate(1/day)", "meanContactDur(s)", "expFitKS"},
	}
	for _, preset := range presets(opts) {
		tr, err := genTrace(preset, opts.Seed)
		if err != nil {
			return nil, err
		}
		s := tr.ComputeStats()
		var gaps []float64
		for _, g := range tr.InterContactTimes() {
			gaps = append(gaps, g...)
		}
		ks, err := stats.ExpFitKS(gaps)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name, s.Nodes, s.DurationHours, s.Contacts, s.MeetingPairs,
			s.PairCoverage, s.ContactsPerPair, s.MeanPairRate*mobility.Day, s.MeanContactDur, ks)
	}
	return []*Table{t}, nil
}

// runSweepCell is the shared cell body of the swept paper experiments: it
// fetches the cell's cached trace, lets mutate specialize the scenario for
// the cell's sweep point, runs the cell's scheme, records run statistics,
// and extracts the metric vector.
func runSweepCell(opts Options, c Cell, mutate func(sc *Scenario), extract func(res metrics.Result, eng *core.Engine) []float64) ([]float64, error) {
	tr, tl, err := genTraceCompiled(c.Preset, c.TraceSeed)
	if err != nil {
		return nil, err
	}
	sc := defaultScenario(c.Preset, c.Seed)
	if mutate != nil {
		mutate(&sc)
	}
	scheme, err := core.SchemeByName(c.Scheme)
	if err != nil {
		return nil, err
	}
	sc.ContactTimeline = tl
	sc.ReferenceScheduler = opts.ReferenceScheduler
	sc.RateBacking = opts.RateBacking
	reuse := getReuse()
	defer putReuse(reuse)
	sc.Reuse = reuse
	res, eng, err := opts.runScenario(cellLabel(c), sc, scheme, tr)
	if err != nil {
		return nil, err
	}
	return extract(res, eng), nil
}

// schemeGrid renders one preset's slice of a sweep result as an
// (x, one metric per scheme) table.
func schemeGrid(id, title, xHeader string, xs []any, schemes []string, res *SweepResult, preset int) *Table {
	t := &Table{ID: id, Title: title, Header: append([]string{xHeader}, schemes...)}
	for pt, x := range xs {
		row := []any{x}
		for si := range schemes {
			row = append(row, res.Value(preset, pt, si, 0))
		}
		t.AddRow(row...)
	}
	return t
}

func runE2(opts Options) ([]*Table, error) {
	var tables []*Table
	// The refresh sweep is trace-specific, so each preset gets its own
	// worker-pool grid.
	for _, preset := range presets(opts) {
		rs := refreshSweep(preset, opts.Quick)
		sw := opts.sweep("E2", []string{preset}, len(rs), figureSchemes())
		res, err := sw.Run(func(c Cell) ([]float64, error) {
			return runSweepCell(opts, c,
				func(sc *Scenario) { sc.RefreshInterval = rs[c.Point] },
				func(r metrics.Result, _ *core.Engine) []float64 { return []float64{r.FreshnessRatio} })
		})
		if err != nil {
			return nil, err
		}
		xs := make([]any, len(rs))
		for i, r := range rs {
			xs[i] = r / mobility.Hour
		}
		tables = append(tables, schemeGrid("E2", "Freshness ratio vs refresh interval — "+preset,
			"refresh(h)", xs, figureSchemes(), res, 0))
	}
	return tables, nil
}

func runE3(opts Options) ([]*Table, error) {
	ratesPerDay := []float64{1, 2, 4, 8}
	if opts.Quick {
		ratesPerDay = ratesPerDay[:2]
	}
	ps := presets(opts)
	sw := opts.sweep("E3", ps, len(ratesPerDay), figureSchemes())
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		return runSweepCell(opts, c,
			func(sc *Scenario) {
				sc.QueryRate = ratesPerDay[c.Point] / mobility.Day
				// Data is useful for exactly one refresh interval, so the
				// figure isolates how well each scheme keeps the *current*
				// version available (the default 2×R lifetime saturates on
				// the dense trace).
				sc.Lifetime = sc.RefreshInterval
			},
			func(r metrics.Result, _ *core.Engine) []float64 { return []float64{r.ValidAccessRate} })
	})
	if err != nil {
		return nil, err
	}
	xs := make([]any, len(ratesPerDay))
	for i, q := range ratesPerDay {
		xs[i] = q
	}
	var tables []*Table
	for pi, preset := range ps {
		tables = append(tables, schemeGrid("E3", "Valid-access ratio vs per-node query rate — "+preset,
			"queries/day", xs, figureSchemes(), res, pi))
	}
	return tables, nil
}

func runE4(opts Options) ([]*Table, error) {
	ks := []int{2, 4, 8, 12, 16}
	if opts.Quick {
		ks = ks[:2]
	}
	ps := presets(opts)
	sw := opts.sweep("E4", ps, len(ks), figureSchemes())
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		return runSweepCell(opts, c,
			func(sc *Scenario) { sc.NumCachingNodes = ks[c.Point] },
			func(r metrics.Result, _ *core.Engine) []float64 { return []float64{r.FreshnessRatio} })
	})
	if err != nil {
		return nil, err
	}
	xs := make([]any, len(ks))
	for i, k := range ks {
		xs[i] = k
	}
	var tables []*Table
	for pi, preset := range ps {
		tables = append(tables, schemeGrid("E4", "Freshness ratio vs number of caching nodes — "+preset,
			"cachingNodes", xs, figureSchemes(), res, pi))
	}
	return tables, nil
}

func runE5(opts Options) ([]*Table, error) {
	t := &Table{
		ID: "E5", Title: "Refresh overhead per generated version",
		Header: []string{"trace", "scheme", "tx/version", "refreshTx", "relayTx", "sourceTxShare", "maxNodeShare", "loadGini", "freshness"},
	}
	for _, preset := range presets(opts) {
		tr, err := genTrace(preset, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, name := range figureSchemes() {
			sc := defaultScenario(preset, opts.Seed)
			scheme, err := core.SchemeByName(name)
			if err != nil {
				return nil, err
			}
			res, _, err := opts.runScenario("E5/"+preset+"/"+name, sc, scheme, tr)
			if err != nil {
				return nil, err
			}
			t.AddRow(preset, name, res.TxPerVersion,
				res.TransmissionsByKind["refresh"], res.TransmissionsByKind["relay"],
				res.SourceTxShare, res.MaxNodeTxShare, res.LoadGini, res.FreshnessRatio)
		}
	}
	return []*Table{t}, nil
}

func runE6(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical-norep", "hierarchical", "epidemic"}
	var tables []*Table
	for _, preset := range presets(opts) {
		tr, err := genTrace(preset, opts.Seed)
		if err != nil {
			return nil, err
		}
		sc := defaultScenario(preset, opts.Seed)
		sc = sc.withDefaults()
		window := sc.FreshnessWindow
		fractions := []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4}
		probes := make([]float64, len(fractions))
		for i, f := range fractions {
			probes[i] = f * window
		}
		t := &Table{
			ID: "E6", Title: "Refresh delay CDF (delay in freshness windows) — " + preset,
			Header: append([]string{"delay/window"}, schemes...),
		}
		cols := make([][]float64, len(schemes))
		for i, name := range schemes {
			scheme, err := core.SchemeByName(name)
			if err != nil {
				return nil, err
			}
			_, eng, err := opts.runScenario("E6/"+preset+"/"+name, sc, scheme, tr)
			if err != nil {
				return nil, err
			}
			cols[i] = eng.Collector().DelayCDF(probes)
		}
		for pi, f := range fractions {
			row := []any{f}
			for i := range schemes {
				row = append(row, cols[i][pi])
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runE7(opts Options) ([]*Table, error) {
	preqs := []float64{0.5, 0.7, 0.8, 0.9, 0.95}
	if opts.Quick {
		preqs = preqs[:2]
	}
	ps := presets(opts)
	sw := opts.sweep("E7", ps, len(preqs), []string{"hierarchical"})
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		return runSweepCell(opts, c,
			func(sc *Scenario) { sc.PReq = preqs[c.Point] },
			func(r metrics.Result, eng *core.Engine) []float64 {
				relayPerVer := 0.0
				if r.VersionsGenerated > 0 {
					relayPerVer = float64(r.TransmissionsByKind["relay"]) / float64(r.VersionsGenerated)
				}
				return []float64{r.SchemeStats["meanAchievedProb"], r.SchemeStats["satisfiedRatio"],
					eng.Collector().FirstDeliveryOnTimeRatio(), relayPerVer}
			})
	})
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for pi, preset := range ps {
		t := &Table{
			ID: "E7", Title: "Replication analysis vs measured on-time delivery — " + preset,
			Header: []string{"pReq", "analyticMeanProb", "plansSatisfied", "measuredFirstOnTime", "relayTx/version"},
		}
		for pt, p := range preqs {
			t.AddRow(p, res.Value(pi, pt, 0, 0), res.Value(pi, pt, 0, 1),
				res.Value(pi, pt, 0, 2), res.Value(pi, pt, 0, 3))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runE8(opts Options) ([]*Table, error) {
	factors := []float64{0.5, 1, 2, 3}
	if opts.Quick {
		factors = factors[:2]
	}
	schemes := []string{"direct", "hierarchical", "epidemic"}
	ps := presets(opts)
	sw := opts.sweep("E8", ps, len(factors), schemes)
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		return runSweepCell(opts, c,
			func(sc *Scenario) { sc.FreshnessWindow = factors[c.Point] * sc.RefreshInterval },
			func(r metrics.Result, _ *core.Engine) []float64 { return []float64{r.OnTimeRatio} })
	})
	if err != nil {
		return nil, err
	}
	xs := make([]any, len(factors))
	for i, f := range factors {
		xs[i] = f
	}
	var tables []*Table
	for pi, preset := range ps {
		tables = append(tables, schemeGrid("E8",
			"On-time delivery ratio vs freshness window (in refresh intervals) — "+preset,
			"window/R", xs, schemes, res, pi))
	}
	return tables, nil
}

func runE9(opts Options) ([]*Table, error) {
	t := &Table{
		ID: "E9", Title: "Ablation: contribution of hierarchy and replication",
		Header: []string{"trace", "scheme", "freshness", "tx/version", "sourceTxShare", "meanDelay(h)"},
	}
	schemes := []string{"direct", "direct-rep", "hierarchical-norep", "hierarchical"}
	for _, preset := range presets(opts) {
		tr, err := genTrace(preset, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, name := range schemes {
			sc := defaultScenario(preset, opts.Seed)
			scheme, err := core.SchemeByName(name)
			if err != nil {
				return nil, err
			}
			res, _, err := opts.runScenario("E9/"+preset+"/"+name, sc, scheme, tr)
			if err != nil {
				return nil, err
			}
			t.AddRow(preset, name, res.FreshnessRatio, res.TxPerVersion,
				res.SourceTxShare, res.MeanRefreshDelay/mobility.Hour)
		}
	}
	return []*Table{t}, nil
}

func runE10(opts Options) ([]*Table, error) {
	sizes := []int{50, 100, 200, 400}
	if opts.Quick {
		sizes = sizes[:2]
	}
	// The wall-clock column is machine-dependent, so it is opt-in
	// (-timings); without it the quick-suite output is byte-identical
	// across machines and worker counts.
	header := []string{"nodes", "contacts", "events", "freshness", "tx/version"}
	if opts.Timings {
		header = []string{"nodes", "contacts", "events", "wallClock(s)", "freshness", "tx/version"}
	}
	t := &Table{
		ID: "E10", Title: "Scalability with network size (hierarchical scheme)",
		Header: header,
	}
	for _, n := range sizes {
		g := &mobility.Community{
			TraceName: fmt.Sprintf("scale-%d", n), N: n, Duration: 10 * mobility.Day,
			Communities: n / 12, IntraRate: 8.0 / mobility.Day, InterRate: 0.5 / mobility.Day,
			RateShape: 0.8, InterPairFraction: 0.3, HubFraction: 0.08, HubBoost: 3,
			MeanContactDur: 120,
		}
		tr, err := g.Generate(opts.Seed)
		if err != nil {
			return nil, err
		}
		sc := defaultScenario("reality-like", opts.Seed) // preset field unused by RunOnTrace
		res, _, err := opts.runScenario(fmt.Sprintf("E10/scale-%d", n), sc, core.NewHierarchical(), tr)
		if err != nil {
			return nil, err
		}
		row := []any{n, len(tr.Contacts), int(res.SimulatedEventCount)}
		if opts.Timings {
			row = append(row, res.WallClockSeconds)
		}
		row = append(row, res.FreshnessRatio, res.TxPerVersion)
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
