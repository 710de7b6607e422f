// Command perfbench is the freshcache benchmark: it runs one workload for
// a fixed time, checks every output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run). The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload api-cold --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed golden.json's digests were recorded at.
const defaultSeed = 1

// buildDir holds everything a run leaves behind; it is git-ignored.
const buildDir = ".bench_build"

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → operation key → digest of the simulated
// statistics at the default seed.
type golden map[string]map[string]string

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
	errs              []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds operation outcomes into the attempted/failed totals.
func (r *report) count(outs []outcome) {
	for _, o := range outs {
		r.attempted++
		if o.err != nil {
			r.failed++
			if len(r.errs) < 10 {
				r.errs = append(r.errs, o.err.Error())
			}
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	writeGolden := fs.String("write-golden", "", "record the default-seed digests of every workload into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden != "" {
		if err := recordGolden(*writeGolden); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var gold golden
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		fmt.Fprintln(stderr, "perfbench: golden.json:", err)
		return 1
	}

	e, cleanup, err := newEnv(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer cleanup()
	w, err := newWorkload(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	rep := &report{}
	var outs []outcome
	var setupS []float64
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		outs = append(outs, w.setup(r)...)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	dur := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		spanFile := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))
		tracedRun(w, e, dur, spanFile, rep)
	} else {
		ops, lives := measuredRun(w, dur)
		outs = append(outs, ops...)
		endToEnd(w, setupS, ops, lives, rep)
	}
	checkGolden(gold, e, outs)
	rep.count(outs)
	rep.correct = rep.failed == 0
	rep.note("failed_ops_ratio = %g (%d of %d operations, set-up included)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	writeReport(stdout, e, *seconds, *traced, rep)
	return 0
}

// newEnv validates the workload name and makes the run's scratch
// directory inside the checkout.
func newEnv(name string, seed int64) (env, func(), error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == name
	}
	if !known {
		return env{}, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return env{}, nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return env{}, nil, err
	}
	e := env{name: name, seed: seed, dir: dir, nproc: runtime.NumCPU(), ac: newAllocCounter()}
	return e, func() { os.RemoveAll(dir) }, nil
}

// measuredRun runs whole rounds until the run has measured for dur and
// holds the full latency sample. It returns the operations and the live
// heap of every garbage collection meanwhile.
func measuredRun(w workload, dur time.Duration) ([]outcome, []float64) {
	var ops []outcome
	heap := watchLiveHeap()
	start := time.Now()
	for rounds := 1; ; rounds++ {
		for j := 0; j < w.roundOps(); j++ {
			ops = append(ops, w.op(len(ops)))
		}
		if rounds >= w.sampleRounds() && time.Since(start) >= dur {
			return ops, heap.finish()
		}
	}
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(w workload, setupS []float64, ops []outcome, lives []float64, rep *report) {
	var opMs, roundS []float64
	var ns, contacts, events, allocs, bytes float64
	for i, o := range ops {
		opMs = append(opMs, float64(o.cost.ns)/1e6)
		if i%w.roundOps() == 0 {
			roundS = append(roundS, 0)
		}
		roundS[len(roundS)-1] += float64(o.cost.ns) / 1e9
		ns += float64(o.cost.ns)
		contacts += float64(o.contacts)
		events += float64(o.events)
		allocs += float64(o.cost.allocs)
		bytes += float64(o.cost.bytes)
	}
	n := float64(len(ops))
	sample := opMs[:w.sampleRounds()*w.roundOps()]
	tail, pct, beyond := tailPercentile(sample, 10)
	rep.add("setup_s", median(setupS), "s")
	rep.add("wall_s", median(roundS), "s")
	rep.add("op_ms_p50", median(opMs), "ms")
	rep.add("op_ms_tail", tail, "ms")
	rep.add("contacts_per_s", contacts/(ns/1e9), "1/s")
	rep.add("sim_events_per_s", events/(ns/1e9), "1/s")
	rep.add("allocs_per_op", allocs/n, "count")
	rep.add("alloc_mb_per_op", bytes/n/1e6, "MB")
	rep.add("peak_heap_mb", percentile(lives, 90)/1e6, "MB")
	rep.note("op_ms_tail is p%.2f of the first %d operations (%d samples beyond it)", pct, len(sample), beyond)
	rep.note("wall_s is the median of %d rounds of %d operations; %d operations measured", len(roundS), w.roundOps(), len(ops))
	rep.note("peak_heap_mb is p90 of the live heap at the %d garbage collections during measurement", len(lives))
}

// tracedRun alternates each operation's untraced reference with its
// traced decomposition until dur has passed, then reports per-layer
// metrics and writes the spans.
func tracedRun(w workload, e env, dur time.Duration, spanFile string, rep *report) {
	t := newTracer(e.dir)
	var gcCycles, gcPause float64
	var refMs []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		c0, p0 := gcCounters()
		refBefore := t.refNs
		t.op = i + 1
		err := w.traced(i, t)
		c1, p1 := gcCounters()
		gcCycles += float64(c1 - c0)
		gcPause += float64(p1 - p0)
		rep.attempted += 2 // the reference and the traced operation
		if err != nil {
			rep.failed++
			rep.errs = append(rep.errs, err.Error())
			break
		}
		refMs = append(refMs, float64(t.refNs-refBefore)/1e6)
	}
	if rep.failed > 0 || t.ops == 0 {
		return
	}
	layerMetrics(t, refMs, gcCycles, gcPause, rep)
	err := os.MkdirAll(filepath.Dir(spanFile), 0o755)
	if err == nil {
		err = t.writeJSONL(spanFile)
	}
	if err != nil {
		rep.note("spans not written: %v", err)
		return
	}
	rep.note("spans written to %s", spanFile)
}

// layerMetrics turns the spans and counts into per-operation layer
// metrics.
func layerMetrics(t *tracer, refMs []float64, gcCycles, gcPause float64, rep *report) {
	self := selfTimes(t.spans)
	selfNs, durNs := map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		selfNs[s.Name] += float64(self[s.ID])
		durNs[s.Name] += float64(s.dur())
	}
	ops := float64(t.ops)
	perOpMs := func(ns float64) float64 { return ns / ops / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var contactNs, contactCalls, generateNs float64
	for _, ts := range t.ctx {
		contactNs += float64(ts.contactNs)
		contactCalls += float64(ts.contactCalls)
		generateNs += float64(ts.generateNs)
	}
	s := t.sums

	rep.add("mobility.generate_ms", perOpMs(durNs["mobility.generate"]-durNs["trace.normalize"]), "ms")
	rep.add("mobility.contacts", s["mobility.contacts"]/ops, "count")
	rep.add("trace.normalize_ms", perOpMs(durNs["trace.normalize"]), "ms")
	rep.add("trace.normalize_sorted_ms", perOpMs(durNs["trace.normalize_sorted"]), "ms")
	rep.add("trace.read_ms", perOpMs(durNs["trace.read"]), "ms")
	rep.add("trace.read_mb_per_s", ratio(s["trace.read_bytes"]/1e6, durNs["trace.read"]/1e9), "MB/s")
	rep.add("network.compile_ms", perOpMs(durNs["network.compile"]), "ms")
	rep.add("centrality.estimate_ms", perOpMs(durNs["centrality.estimate"]), "ms")
	rep.add("centrality.rate_pairs", s["centrality.rate_pairs"]/ops, "count")
	rep.add("centrality.select_ms", perOpMs(durNs["centrality.select"]), "ms")
	rep.add("core.scheme_init_ms", perOpMs(durNs["core.scheme_init"]), "ms")
	rep.add("core.build_tree_ms", perOpMs(durNs["core.build_tree"]), "ms")
	rep.add("core.tree_depth_max", t.maxes["core.tree_depth_max"], "count")
	rep.add("core.plan_replication_ms", perOpMs(durNs["core.plan_replication"]), "ms")
	rep.add("core.plan_replication_calls", s["core.plan_replication_calls"]/ops, "count")
	rep.add("core.plan_satisfied_ratio", ratio(s["core.plan_satisfied"], s["core.plan_replication_calls"]), "ratio")
	rep.add("core.on_contact_ns", ratio(contactNs, contactCalls), "ns")
	rep.add("core.on_contact_calls", contactCalls/ops, "count")
	rep.add("core.on_generate_ms", perOpMs(generateNs), "ms")
	rep.add("core.engine_self_ms", perOpMs(selfNs["core.engine_run"]-contactNs-generateNs), "ms")
	rep.add("eventsim.events", s["eventsim.events"]/ops, "count")
	rep.add("eventsim.ns_per_event", ratio(durNs["core.engine_run"], s["eventsim.events"]), "ns")
	rep.add("eventsim.queue_depth_max", t.maxes["eventsim.queue_depth_max"], "count")
	rep.add("network.transmissions", s["network.transmissions"]/ops, "count")
	rep.add("network.tx_per_delivery", ratio(s["network.transmissions"], s["network.deliveries"]), "ratio")
	rep.add("cache.generate_queries_ms", perOpMs(durNs["cache.generate_queries"]), "ms")
	rep.add("cache.queries", s["cache.queries"]/ops, "count")
	rep.add("cache.answered_ratio", ratio(s["cache.answered"], s["cache.queries"]), "ratio")
	rep.add("metrics.aggregate_ms", perOpMs(durNs["metrics.aggregate"]), "ms")
	if len(t.cells) > 0 {
		rep.add("expt.cells", s["expt.cells"]/s["expt.experiments"], "count")
		rep.add("expt.cell_ms_p50", median(t.cells), "ms")
		rep.add("expt.cell_ms_max", maxOf(t.cells), "ms")
		rep.add("expt.worker_busy_ratio", ratio(s["expt.busy_s"], s["expt.capacity_s"]), "ratio")
	} else {
		// One client runs one operation at a time: each operation is the
		// single cell of work, and its one worker is always busy.
		rep.add("expt.cells", 1, "count")
		rep.add("expt.cell_ms_p50", median(refMs), "ms")
		rep.add("expt.cell_ms_max", maxOf(refMs), "ms")
		rep.add("expt.worker_busy_ratio", 1, "ratio")
	}
	rep.add("obs.events_emitted", s["obs.events_emitted"]/ops, "count")
	rep.add("obs.lineage_spans", s["obs.lineage_spans"]/ops, "count")
	rep.add("obs.timeline_points", s["obs.timeline_points"]/ops, "count")
	rep.add("obs.export_ms", perOpMs(durNs["obs.export"]), "ms")
	rep.add("obs.export_mb", s["obs.export_bytes"]/ops/1e6, "MB")
	rep.add("runtime.gc_cycles", gcCycles/ops, "count")
	rep.add("runtime.gc_pause_ms", perOpMs(gcPause), "ms")
	rep.add("tracing.overhead_ratio", ratio(durNs["op"], float64(t.refNs))-1, "ratio")
	rep.add("tracing.spans", float64(len(t.spans))/ops, "count")

	// Shares of the traced operation's own path, and of the untraced
	// operation, for the questions the benchmark exists to answer.
	onPath := map[string]float64{}
	for _, sp := range t.spans {
		if sp.Parent != 0 && t.spans[sp.Parent-1].Name == "op" {
			onPath[sp.Name] += float64(sp.dur())
		}
	}
	dispatch := selfNs["core.engine_run"] - generateNs // on_contact_ns x calls + engine_self
	rep.note("%d traced operations; traced op %.3f ms vs untraced %.3f ms", t.ops, perOpMs(durNs["op"]), float64(t.refNs)/ops/1e6)
	rep.note("on the traced op's path: mobility.generate (with its normalize) %.1f%%, trace.read %.1f%%, network.compile %.1f%%, core.engine_run %.1f%%, obs.export %.1f%%",
		100*ratio(onPath["mobility.generate"], durNs["op"]), 100*ratio(onPath["trace.read"], durNs["op"]),
		100*ratio(onPath["network.compile"], durNs["op"]), 100*ratio(onPath["core.engine_run"], durNs["op"]),
		100*ratio(onPath["obs.export"], durNs["op"]))
	rep.note("of the traced op: on_contact_ns x on_contact_calls + engine_self %.1f%%", 100*ratio(dispatch, durNs["op"]))
	rep.note("runtime.gc_* count the reference and the traced operation together")
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// checkGolden marks an operation failed when, at the default seed, its
// digest differs from the recorded one.
func checkGolden(gold golden, e env, outs []outcome) {
	if e.seed != defaultSeed {
		return
	}
	want := gold[e.name]
	for i := range outs {
		o := &outs[i]
		if d, ok := want[o.key]; ok && o.err == nil && o.digest != d {
			o.err = fmt.Errorf("%s: simulated statistics digest %s, recorded %s", o.key, o.digest, d)
		}
	}
}

// goldenOps is how many measured operations golden.json records per
// workload: more than a run at the default seed measures on the host the
// digests were recorded on.
var goldenOps = map[string]int{"api-cold": 256, "quick-suite": 0, "large-n": 48, "replay-observed": 160}

// recordGolden runs every workload's set-up and its first goldenOps
// operations at the default seed and writes their digests.
func recordGolden(path string) error {
	gold := golden{}
	for _, name := range workloadNames {
		e, cleanup, err := newEnv(name, defaultSeed)
		if err != nil {
			return err
		}
		w, err := newWorkload(e)
		if err != nil {
			cleanup()
			return err
		}
		var outs []outcome
		for r := 0; r < setupRounds; r++ {
			outs = append(outs, w.setup(r)...)
		}
		for i := 0; i < goldenOps[name]; i++ {
			outs = append(outs, w.op(i))
		}
		cleanup()
		gold[name] = map[string]string{}
		for _, o := range outs {
			if o.err != nil {
				return fmt.Errorf("%s %s: %w", name, o.key, o.err)
			}
			gold[name][o.key] = o.digest
		}
	}
	data, err := json.MarshalIndent(gold, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeReport writes the human-readable report, then the JSON result line.
func writeReport(w io.Writer, e env, seconds, traced int, rep *report) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", e.name, e.seed, seconds, traced)
	for _, line := range hostLines() {
		fmt.Fprintln(w, "host:", line)
	}
	fmt.Fprintln(w, "note: wall-time metrics compare only between runs on the same host")
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, msg := range rep.errs {
		fmt.Fprintln(w, "FAILED:", msg)
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]json.RawMessage{}}
	for _, m := range rep.metrics {
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, m.unit})
		if err != nil { // NaN or Inf: the run measured nothing valid
			out.Correct = false
			raw = []byte(`{"value":0,"unit":"` + m.unit + `"}`)
		}
		out.Metrics[m.name] = raw
	}
	// Booleans, integers and already-encoded values cannot fail to encode.
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}
