package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"freshcache"
	"freshcache/internal/cache"
	"freshcache/internal/core"
	"freshcache/internal/expt"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// The public-API scenario every api-cold and replay-observed operation
// runs: the README quickstart.
const (
	apiItems        = 5
	apiRefresh      = 2 * time.Hour
	apiCachingNodes = 8
	apiQueriesDay   = 4.0
	apiZipf         = 1.0
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median round.
const setupRounds = 5

// outcome is one operation as the benchmark sees it.
type outcome struct {
	// key names the operation's inputs; at the default seed the digest
	// recorded under it in golden.json must match.
	key      string
	cost     cost
	contacts int64
	events   uint64
	digest   string
	err      error // the run failed or an output check did not hold
}

// workload is one set of inputs the benchmark runs. Operations are
// numbered; operation i's inputs depend only on the workload seed and i.
type workload interface {
	// roundOps is the number of operations in one round, the fixed unit of
	// measured work: a measured run is a whole number of rounds.
	roundOps() int
	// sampleRounds is how many rounds the latency sample holds. A fixed
	// sample keeps the tail's rank from moving when the program gets
	// faster and more rounds fit in a run.
	sampleRounds() int
	// setup prepares round r's shared inputs and runs a warm-up operation.
	setup(r int) []outcome
	// op runs operation i untraced.
	op(i int) outcome
	// traced runs operation i untraced as a reference, then again
	// decomposed into calls to each layer, recording spans in t.
	traced(i int, t *tracer) error
}

// env is what every workload shares.
type env struct {
	name  string
	seed  int64
	dir   string // scratch files of this run
	nproc int
	ac    *allocCounter
}

// derive returns a seed for the labelled input of this workload.
func (e *env) derive(labels ...string) int64 {
	return stats.DeriveSeed(e.seed, append([]string{e.name}, labels...)...)
}

var workloadNames = []string{"api-cold", "quick-suite", "large-n", "replay-observed"}

func newWorkload(e env) (workload, error) {
	switch e.name {
	case "api-cold":
		return &apiCold{env: e}, nil
	case "quick-suite":
		return newQuickSuite(e), nil
	case "large-n":
		return &largeN{env: e}, nil
	case "replay-observed":
		return &replayObserved{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", e.name, strings.Join(workloadNames, ", "))
}

func itoa(i int) string { return strconv.Itoa(i) }

// apiOptions are the options of one public-API operation after its trace
// source.
func apiOptions(source freshcache.Option, scheme freshcache.SchemeName, seed int64, extra ...freshcache.Option) []freshcache.Option {
	return append([]freshcache.Option{
		source,
		freshcache.WithScheme(scheme),
		freshcache.WithUniformItems(apiItems, apiRefresh),
		freshcache.WithCachingNodes(apiCachingNodes),
		freshcache.WithQueryWorkload(apiQueriesDay, apiZipf),
		freshcache.WithSeed(seed),
	}, extra...)
}

// apiConfig is the core configuration freshcache.New builds from
// apiOptions; the traced run calls the engine with it directly so it can
// wrap the scheme. The traced run checks that both give the same result.
func apiConfig(tr *trace.Trace, scheme core.Scheme, seed int64) (core.Config, error) {
	items := make([]cache.Item, apiItems)
	refresh := apiRefresh.Seconds()
	for i := range items {
		items[i] = cache.Item{
			ID: cache.ItemID(i), Source: trace.NodeID(i),
			RefreshInterval: refresh, FreshnessWindow: refresh, Lifetime: 2 * refresh, Size: 1,
		}
	}
	cat, err := cache.NewCatalog(items)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Trace:           tr,
		Catalog:         cat,
		Scheme:          scheme,
		NumCachingNodes: apiCachingNodes,
		Seed:            seed,
		Workload:        cache.WorkloadConfig{QueryRate: apiQueriesDay / (24 * 3600), ZipfExponent: apiZipf},
	}, nil
}

// checkResult holds the invariants every simulation result must meet:
// finite statistics, ratios in [0, 1], and contacts dispatched.
func checkResult(r metrics.Result, contacts int64) error {
	if contacts <= 0 {
		return fmt.Errorf("%s/%s: no contacts dispatched", r.Scheme, r.Trace)
	}
	ratios := map[string]float64{
		"freshness": r.FreshnessRatio, "answered": r.AnsweredOK, "fresh answers": r.FreshAnswers,
		"valid answers": r.ValidAnswers, "fresh access": r.FreshAccessRate, "valid access": r.ValidAccessRate,
		"on time": r.OnTimeRatio, "source tx share": r.SourceTxShare, "max node tx share": r.MaxNodeTxShare,
		"load gini": r.LoadGini,
	}
	for name, v := range ratios {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("%s/%s: %s ratio %v outside [0,1]", r.Scheme, r.Trace, name, v)
		}
	}
	for name, v := range map[string]float64{
		"access delay": r.MeanAccessDelaySec, "refresh delay": r.MeanRefreshDelay, "p99 delay": r.P99RefreshDelay,
		"tx per version": r.TxPerVersion,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s/%s: %s %v not finite", r.Scheme, r.Trace, name, v)
		}
	}
	return nil
}

// resultDigest hashes the simulated statistics of a result: a change that
// only makes the simulator faster must leave it unchanged.
func resultDigest(r metrics.Result, contacts int64, extra ...string) string {
	h := sha256.New()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintln(h, r.Scheme, r.Trace, r.Seed, contacts, r.SimulatedEventCount)
	fmt.Fprintln(h, f(r.FreshnessRatio), r.Deliveries, f(r.OnTimeRatio), r.VersionsGenerated, f(r.MeanRefreshDelay))
	fmt.Fprintln(h, r.Queries, r.Answered, f(r.ValidAnswers), f(r.FreshAnswers), r.QueriesDropped)
	kinds := make([]string, 0, len(r.TransmissionsByKind))
	for k := range r.TransmissionsByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintln(h, k, r.TransmissionsByKind[k])
	}
	fmt.Fprintln(h, r.Transmissions, f(r.SourceTxShare), f(r.LoadGini))
	for _, x := range extra {
		fmt.Fprintln(h, x)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// finish fills an outcome from a completed simulation.
func (o *outcome) finish(r metrics.Result, contacts int64, extra ...string) {
	o.contacts, o.events = contacts, r.SimulatedEventCount
	o.err = checkResult(r, contacts)
	o.digest = resultDigest(r, contacts, extra...)
}

// --- api-cold ---

// apiCold: each operation is freshcache.New(...).Run() on a freshly
// generated preset trace, alternating reality-like and infocom-like within
// each round.
type apiCold struct{ env }

var apiPresets = []string{"reality-like", "infocom-like"}

// roundOps is odd so that a round holds one more reality-like operation
// than infocom-like ones. The two presets' operation times form two modes;
// with equal counts the median would fall in the gap between them and
// swing with the extremes of both.
func (w *apiCold) roundOps() int     { return 7 }
func (w *apiCold) sampleRounds() int { return 12 }

// setup warms up on both presets.
func (w *apiCold) setup(r int) []outcome {
	var outs []outcome
	for j, p := range apiPresets {
		outs = append(outs, w.run("setup/"+itoa(r)+"/"+itoa(j), p, w.derive("setup", itoa(r), itoa(j))))
	}
	return outs
}

func (w *apiCold) op(i int) outcome {
	return w.run("op/"+itoa(i), w.preset(i), w.derive("op", itoa(i)))
}

func (w *apiCold) preset(i int) string { return apiPresets[(i%w.roundOps())%2] }

func (w *apiCold) run(key, preset string, seed int64) outcome {
	o := outcome{key: key}
	var sim *freshcache.Simulation
	var res freshcache.Result
	o.cost, o.err = w.ac.measure(func() error {
		var err error
		sim, err = freshcache.New(apiOptions(freshcache.WithPreset(preset), freshcache.SchemeHierarchical, seed)...)
		if err != nil {
			return err
		}
		res, err = sim.Run()
		return err
	})
	if o.err == nil {
		o.finish(res, int64(sim.ContactsDispatched()))
	}
	return o
}

func (w *apiCold) traced(i int, t *tracer) error {
	preset, seed := w.preset(i), w.derive("op", itoa(i))
	ref := w.op(i)
	if ref.err != nil {
		return ref.err
	}
	op := t.beginOp(ref.cost.ns)
	gen, err := mobility.Preset(preset)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if err := t.timed("mobility.generate", op, func() (err error) { tr, err = gen.Generate(seed); return err }); err != nil {
		return err
	}
	cfg, err := apiConfig(tr, nil, seed)
	if err != nil {
		return err
	}
	c, err := t.engineRun(op, tr, core.NewHierarchical(), configRunner(cfg), nil)
	t.end(op)
	if err != nil {
		return err
	}
	if d := resultDigest(c.res, c.contacts); d != ref.digest {
		return fmt.Errorf("api-cold op %d: traced result %s differs from untraced %s", i, d, ref.digest)
	}
	return t.probes(c, false)
}

// --- quick-suite ---

// quickSuite: one pass is the quick suite E1-E20, one operation one
// experiment, on the sweep pool at Parallel = nproc. The suite's trace
// cache is process-wide, so each set-up round runs one pass at its own
// suite seed to fill it; measured passes cycle through those seeds.
type quickSuite struct {
	env
	exps  []expt.Experiment
	seeds []int64
	// contacts and digests of every (seed, experiment) from the set-up
	// pass; measured passes at the same seed must reproduce the digests.
	contacts map[string]int64
	digests  map[string]string
}

// quickSampleSchemes are the schemes the traced run decomposes sample
// cells of, one per traced operation in turn.
var quickSampleSchemes = []func() core.Scheme{
	core.NewDirect, core.NewHierarchical, core.NewEpidemic,
	func() core.Scheme { return core.NewSprayAndWait(0) },
}

func newQuickSuite(e env) *quickSuite {
	w := &quickSuite{env: e, contacts: map[string]int64{}, digests: map[string]string{}}
	for _, x := range expt.All() {
		if x.ID != "E21" { // large-n owns E21
			w.exps = append(w.exps, x)
		}
	}
	for r := 0; r < setupRounds; r++ {
		w.seeds = append(w.seeds, w.derive("suite", itoa(r)))
	}
	return w
}

func (w *quickSuite) roundOps() int     { return len(w.exps) }
func (w *quickSuite) sampleRounds() int { return 5 }

func (w *quickSuite) key(r, k int) string { return itoa(r) + "/" + w.exps[k].ID }

func (w *quickSuite) opts(r int) expt.Options {
	return expt.Options{Seed: w.seeds[r], Quick: true, Parallel: w.nproc, Stats: metrics.NewRunStats()}
}

// setup runs one pass at suite seed r with a registry-only observer,
// whose engine/contacts counter gives each experiment's contact count (the
// contacts its cells hand to the schemes). Observability does not change
// the tables, which the measured passes check.
func (w *quickSuite) setup(r int) []outcome {
	observer := obs.NewObserver(obs.Config{SampleEvery: 1 << 30, BufferCap: 1})
	counter := observer.Registry().Counter("engine/contacts")
	var outs []outcome
	for k := range w.exps {
		opts := w.opts(r)
		opts.Obs = observer
		before := counter.Value()
		o := w.run(r, k, opts)
		o.contacts = counter.Value() - before
		w.contacts[o.key], w.digests[o.key] = o.contacts, o.digest
		outs = append(outs, o)
	}
	return outs
}

func (w *quickSuite) op(i int) outcome {
	r, k := (i/len(w.exps))%setupRounds, i%len(w.exps)
	o := w.run(r, k, w.opts(r))
	o.contacts = w.contacts[o.key]
	if o.err == nil && o.digest != w.digests[o.key] {
		o.err = fmt.Errorf("%s: tables %s differ from the set-up pass's %s", o.key, o.digest, w.digests[o.key])
	}
	return o
}

func (w *quickSuite) run(r, k int, opts expt.Options) outcome {
	o := outcome{key: w.key(r, k)}
	var tables []*expt.Table
	o.cost, o.err = w.ac.measure(func() (err error) { tables, err = w.exps[k].Run(opts); return err })
	if o.err != nil {
		return o
	}
	o.events = opts.Stats.Events()
	o.digest, o.err = tableDigest(tables, opts.Stats)
	return o
}

// tableDigest hashes rendered tables plus the run totals, after checking
// that every numeric cell is finite.
func tableDigest(tables []*expt.Table, rs *metrics.RunStats) (string, error) {
	h := sha256.New()
	for _, t := range tables {
		for _, row := range t.Rows {
			for _, cell := range row {
				if v, err := strconv.ParseFloat(cell, 64); (err == nil && (math.IsNaN(v) || math.IsInf(v, 0))) || cell == "NA" {
					return "", fmt.Errorf("%s: non-finite cell %q", t.ID, cell)
				}
			}
		}
		io.WriteString(h, t.CSV())
	}
	fmt.Fprintln(h, rs.Runs(), rs.Events(), rs.Transmissions())
	for _, kc := range rs.KindCounts() {
		fmt.Fprintln(h, kc.Kind, kc.Count)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func (w *quickSuite) traced(i int, t *tracer) error {
	r, k := (i/len(w.exps))%setupRounds, i%len(w.exps)

	// The experiment itself, with the sweep runner's own cost accounting.
	opts := w.opts(r)
	opts.Costs = expt.NewCellCosts(0, false)
	expSpan := t.begin("expt.experiment", 0)
	tables, err := w.exps[k].Run(opts)
	t.end(expSpan)
	if err != nil {
		return err
	}
	if d, err := tableDigest(tables, opts.Stats); err != nil || d != w.digests[w.key(r, k)] {
		return fmt.Errorf("%s: tables with cost accounting differ from the set-up pass (%v)", w.key(r, k), err)
	}
	t.sweep(opts.Costs.Cells(), t.spanDur(expSpan), w.nproc)

	// One sample cell, decomposed: the default scenario on the suite's
	// cached infocom-like trace.
	seed := w.seeds[r]
	gen, err := mobility.Preset("infocom-like")
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if err := t.timed("mobility.generate", 0, func() (err error) { tr, err = gen.Generate(expt.TraceSeedFor(seed, 0)); return err }); err != nil {
		return err
	}
	sc := quickScenario(seed)
	newScheme := quickSampleSchemes[i%len(quickSampleSchemes)]
	var ref metrics.Result
	refCost, err := w.ac.measure(func() (err error) { ref, _, err = sc.RunOnTrace(newScheme(), tr); return err })
	if err != nil {
		return err
	}
	op := t.beginOp(refCost.ns)
	c, err := t.engineRun(op, tr, newScheme(), scenarioRunner(sc), nil)
	t.end(op)
	if err != nil {
		return err
	}
	if resultDigest(c.res, c.contacts) != resultDigest(ref, c.contacts) {
		return fmt.Errorf("quick-suite sample cell %s: traced result differs from untraced", ref.Scheme)
	}
	return t.probes(c, false)
}

// quickScenario is the sweeps' base point (K=8, five items refreshed
// every 4 h, one query per node every 4 h) on infocom-like.
func quickScenario(seed int64) expt.Scenario {
	return expt.Scenario{
		TracePreset: "infocom-like", NumItems: 5, RefreshInterval: 4 * mobility.Hour,
		NumCachingNodes: 8, QueryRate: 1.0 / (4 * mobility.Hour), Seed: seed,
	}
}

// --- large-n ---

// largeN: each operation is one quick E21 run with a fresh seed.
type largeN struct{ env }

// largeNNodes and largeNGenerator mirror E21's quick mode; the traced run
// checks its decomposed result against E21's table.
const largeNNodes = 2000

func largeNGenerator() *mobility.Community {
	return &mobility.Community{
		TraceName: fmt.Sprintf("large-%d", largeNNodes), N: largeNNodes, Duration: 4 * mobility.Day,
		Communities: largeNNodes / 20, IntraRate: 4.0 / mobility.Day, InterRate: 1.0 / mobility.Day,
		RateShape: 0.8, InterPairFraction: 32.0 / largeNNodes, HubFraction: 0.05, HubBoost: 3,
		MeanContactDur: 120,
	}
}

func largeNScenario(seed int64) expt.Scenario {
	return expt.Scenario{
		TracePreset: "reality-like", NumItems: 5, RefreshInterval: 12 * mobility.Hour,
		NumCachingNodes: 64, QueryRate: 1.0 / (4 * mobility.Hour), Seed: seed,
	}
}

func (w *largeN) roundOps() int     { return 2 }
func (w *largeN) sampleRounds() int { return 12 }

func (w *largeN) setup(r int) []outcome {
	o, _ := w.run("setup/"+itoa(r), w.derive("setup", itoa(r)))
	return []outcome{o}
}

func (w *largeN) op(i int) outcome {
	o, _ := w.run("op/"+itoa(i), w.derive("op", itoa(i)))
	return o
}

// e21Columns are the E21 table cells the traced run compares.
var e21Columns = []string{"contacts", "events", "freshness", "validAnswers", "tx/version"}

func (w *largeN) run(key string, seed int64) (outcome, map[string]string) {
	o := outcome{key: key}
	e21, err := expt.ByID("E21")
	if err != nil {
		o.err = err
		return o, nil
	}
	opts := expt.Options{Seed: seed, Quick: true, Stats: metrics.NewRunStats()}
	var tables []*expt.Table
	o.cost, o.err = w.ac.measure(func() (err error) { tables, err = e21.Run(opts); return err })
	if o.err != nil {
		return o, nil
	}
	if len(tables) != 1 || len(tables[0].Rows) != 1 {
		o.err = fmt.Errorf("E21: want one table row, got %d tables", len(tables))
		return o, nil
	}
	row := map[string]string{}
	for c, h := range tables[0].Header {
		row[h] = tables[0].Rows[0][c]
	}
	contacts, _ := strconv.ParseInt(row["contacts"], 10, 64)
	o.contacts, o.events = contacts, opts.Stats.Events()
	if contacts <= 0 {
		o.err = fmt.Errorf("E21: no contacts dispatched")
	}
	for _, col := range []string{"freshness", "validAnswers"} {
		if v, err := strconv.ParseFloat(row[col], 64); err != nil || v < 0 || v > 1 {
			o.err = fmt.Errorf("E21: %s %q outside [0,1]", col, row[col])
		}
	}
	digest, err := tableDigest(tables, opts.Stats)
	if o.err == nil {
		o.err = err
	}
	o.digest = digest
	return o, row
}

func (w *largeN) traced(i int, t *tracer) error {
	seed := w.derive("op", itoa(i))
	ref, row := w.run("op/"+itoa(i), seed)
	if ref.err != nil {
		return ref.err
	}
	op := t.beginOp(ref.cost.ns)
	var tr *trace.Trace
	if err := t.timed("mobility.generate", op, func() (err error) { tr, err = largeNGenerator().Generate(seed); return err }); err != nil {
		return err
	}
	c, err := t.engineRun(op, tr, core.NewHierarchical(), scenarioRunner(largeNScenario(seed)), nil)
	t.end(op)
	if err != nil {
		return err
	}
	got := map[string]string{
		"contacts": itoa(len(tr.Contacts)), "events": itoa(int(c.res.SimulatedEventCount)),
		"freshness": expt.CellValue(c.res.FreshnessRatio), "validAnswers": expt.CellValue(c.res.ValidAnswers),
		"tx/version": expt.CellValue(c.res.TxPerVersion),
	}
	for _, col := range e21Columns {
		if got[col] != row[col] {
			return fmt.Errorf("large-n op %d: traced %s %s differs from E21's %s", i, col, got[col], row[col])
		}
	}
	return t.probes(c, false)
}

// --- replay-observed ---

// replayObserved: set-up writes a generated reality-like trace to a file;
// each operation replays it through freshcache.New(WithTraceFile) with
// events, lineage and timeline on, alternating hierarchical and epidemic,
// and writes the four exports.
type replayObserved struct {
	env
	files []string
}

var replaySchemes = []freshcache.SchemeName{freshcache.SchemeHierarchical, freshcache.SchemeEpidemic}

// roundOps is odd for the reason apiCold's is: schemes alternate within a
// round, three hierarchical to two epidemic. Each round visits every file,
// starting one file later than the round before, so every file is
// replayed with both schemes.
func (w *replayObserved) roundOps() int     { return 5 }
func (w *replayObserved) sampleRounds() int { return 12 }

func (w *replayObserved) traceSeed(r int) int64 { return w.derive("trace", itoa(r)) }

func (w *replayObserved) setup(r int) []outcome {
	path := filepath.Join(w.dir, "replay-"+itoa(r)+".trace")
	gen, err := mobility.Preset("reality-like")
	if err == nil {
		var tr *trace.Trace
		if tr, err = gen.Generate(w.traceSeed(r)); err == nil {
			err = trace.WriteFile(path, tr)
		}
	}
	if err != nil {
		return []outcome{{key: "setup/" + itoa(r), err: err}}
	}
	w.files = append(w.files, path)
	var outs []outcome
	for j, scheme := range replaySchemes {
		outs = append(outs, w.run("setup/"+itoa(r)+"/"+itoa(j), path, scheme, w.derive("setup", itoa(r), itoa(j)), "setup"))
	}
	return outs
}

// input returns operation i's trace file, scheme and seed.
func (w *replayObserved) input(i int) (int, freshcache.SchemeName, int64) {
	r, j := i/w.roundOps(), i%w.roundOps()
	return (r + j) % len(w.files), replaySchemes[j%2], w.derive("op", itoa(i))
}

func (w *replayObserved) op(i int) outcome {
	file, scheme, seed := w.input(i)
	return w.run("op/"+itoa(i), w.files[file], scheme, seed, "op")
}

// collectors are one run's observability sinks.
type collectors struct {
	rt  *obs.RunTrace
	reg *obs.Registry
	lin *obs.Lineage
	tl  *obs.Timeline
}

func newCollectors(label, scheme string) collectors {
	return collectors{
		rt:  obs.NewRunTrace(label, 1, obs.DefaultBufferCap),
		reg: obs.NewRegistry(),
		lin: obs.NewLineage(label, scheme, obs.DefaultLineageCap),
		tl:  obs.NewTimeline(label, obs.DefaultTimelineCap),
	}
}

var exportNames = []string{"events.jsonl", "trace.json", "lineage.jsonl", "timeline.csv"}

// export writes the four exports into dir under prefix.
func (c collectors) export(dir, prefix string) error {
	writers := []func(io.Writer) error{c.rt.WriteJSONL, c.rt.WriteChromeTrace, c.lin.WriteJSONL, c.tl.WriteCSV}
	for j, write := range writers {
		f, err := os.Create(filepath.Join(dir, prefix+exportNames[j]))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// exportDigests hashes the exports written under prefix and returns the
// hashes and their total size.
func exportDigests(dir, prefix string) ([]string, int64, error) {
	var out []string
	var size int64
	for _, name := range exportNames {
		data, err := os.ReadFile(filepath.Join(dir, prefix+name))
		if err != nil {
			return nil, 0, err
		}
		sum := sha256.Sum256(data)
		out = append(out, name+" "+hex.EncodeToString(sum[:8]))
		size += int64(len(data))
	}
	return out, size, nil
}

func (w *replayObserved) run(key, path string, scheme freshcache.SchemeName, seed int64, prefix string) outcome {
	o := outcome{key: key}
	col := newCollectors("replay", string(scheme))
	var sim *freshcache.Simulation
	var res freshcache.Result
	o.cost, o.err = w.ac.measure(func() error {
		var err error
		sim, err = freshcache.New(apiOptions(freshcache.WithTraceFile(path), scheme, seed,
			freshcache.WithObservability(col.rt, col.reg), freshcache.WithLineage(col.lin), freshcache.WithTimeline(col.tl, 0))...)
		if err != nil {
			return err
		}
		if res, err = sim.Run(); err != nil {
			return err
		}
		return col.export(w.dir, prefix+"-")
	})
	if o.err != nil {
		return o
	}
	hashes, _, err := exportDigests(w.dir, prefix+"-")
	if err != nil {
		o.err = err
		return o
	}
	o.finish(res, int64(sim.ContactsDispatched()), hashes...)
	if o.err == nil && (col.rt.Seen() == 0 || col.lin.Len() == 0 || col.tl.Len() == 0) {
		o.err = fmt.Errorf("%s: observability recorded nothing", key)
	}
	return o
}

func (w *replayObserved) traced(i int, t *tracer) error {
	file, scheme, seed := w.input(i)
	ref := w.op(i)
	if ref.err != nil {
		return ref.err
	}
	op := t.beginOp(ref.cost.ns)
	var tr *trace.Trace
	err := t.timed("trace.read", op, func() (err error) { tr, err = trace.ReadFile(w.files[file]); return err })
	if err != nil {
		return err
	}
	if st, err := os.Stat(w.files[file]); err == nil {
		t.add("trace.read_bytes", float64(st.Size()))
	}
	col := newCollectors("replay", string(scheme))
	sch, err := core.SchemeByName(string(scheme))
	if err != nil {
		return err
	}
	cfg, err := apiConfig(tr, nil, seed)
	if err != nil {
		return err
	}
	cfg.Obs, cfg.Lineage, cfg.Timeline = col.rt, col.lin, col.tl
	c, err := t.engineRun(op, tr, sch, configRunner(cfg), col.reg)
	if err == nil {
		err = t.timed("obs.export", op, func() error { return col.export(w.dir, "traced-") })
	}
	t.end(op)
	if err != nil {
		return err
	}
	hashes, size, err := exportDigests(w.dir, "traced-")
	if err != nil {
		return err
	}
	if d := resultDigest(c.res, c.contacts, hashes...); d != ref.digest {
		return fmt.Errorf("replay-observed op %d: traced result %s differs from untraced %s", i, d, ref.digest)
	}
	t.add("obs.events_emitted", float64(col.rt.Seen()))
	t.add("obs.lineage_spans", float64(col.lin.Len()))
	t.add("obs.timeline_points", float64(col.tl.Len()))
	t.add("obs.export_bytes", float64(size))
	// The file's trace was generated in set-up; regenerating it times the
	// generator on this workload's input.
	gen, err := mobility.Preset("reality-like")
	if err != nil {
		return err
	}
	if err := t.timed("mobility.generate", 0, func() error { _, err := gen.Generate(w.traceSeed(file)); return err }); err != nil {
		return err
	}
	return t.probes(c, true)
}
