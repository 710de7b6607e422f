package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"freshcache/internal/cache"
	"freshcache/internal/centrality"
	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/expt"
	"freshcache/internal/metrics"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// tracer collects the traced run: spans around every call into a layer,
// plus counts recorded at the same boundaries.
type tracer struct {
	*recorder
	dir string // scratch directory for the trace-file probe

	op    int   // ID of the operation being traced, stamped on its spans
	ops   int   // traced operations
	refNs int64 // their untraced reference time
	sums  map[string]float64
	maxes map[string]float64
	ctx   []*timedScheme // every wrapped scheme, for its call counters
	cells []float64      // sweep cell wall times (ms)
}

func newTracer(dir string) *tracer {
	return &tracer{recorder: newRecorder(), dir: dir, sums: map[string]float64{}, maxes: map[string]float64{}}
}

func (t *tracer) add(name string, v float64) { t.sums[name] += v }

func (t *tracer) keepMax(name string, v float64) {
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
}

// beginOp opens the root span of one traced operation whose untraced
// reference took refNs.
func (t *tracer) beginOp(refNs int64) spanID {
	t.ops++
	t.refNs += refNs
	return t.begin("op", 0)
}

func (t *tracer) begin(name string, parent spanID) spanID {
	return t.recorder.begin(name, parent, t.op)
}

func (t *tracer) timed(name string, parent spanID, fn func() error) error {
	return t.recorder.timed(name, parent, t.op, fn)
}

func (t *tracer) spanDur(id spanID) int64 { return t.spans[id-1].dur() }

// pipeline is how a workload runs the engine on a trace: the query
// workload it configures and the call that builds and runs the engine.
type pipeline struct {
	workload cache.WorkloadConfig
	run      func(tr *trace.Trace, s core.Scheme, tl []eventsim.StaticEvent, reg *obs.Registry) (metrics.Result, *core.Engine, error)
}

func configRunner(cfg core.Config) pipeline {
	return pipeline{workload: cfg.Workload, run: func(tr *trace.Trace, s core.Scheme, tl []eventsim.StaticEvent, reg *obs.Registry) (metrics.Result, *core.Engine, error) {
		cfg.Trace, cfg.Scheme, cfg.ContactTimeline, cfg.Metrics = tr, s, tl, reg
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return metrics.Result{}, nil, err
		}
		res, err := eng.Run()
		return res, eng, err
	}}
}

func scenarioRunner(sc expt.Scenario) pipeline {
	return pipeline{
		workload: cache.WorkloadConfig{QueryRate: sc.QueryRate, ZipfExponent: 1.0},
		run: func(tr *trace.Trace, s core.Scheme, tl []eventsim.StaticEvent, reg *obs.Registry) (metrics.Result, *core.Engine, error) {
			sc.ContactTimeline, sc.Metrics = tl, reg
			return sc.RunOnTrace(s, tr)
		},
	}
}

// engineCall is one traced engine run.
type engineCall struct {
	tr       *trace.Trace
	res      metrics.Result
	eng      *core.Engine
	contacts int64
	workload cache.WorkloadConfig
}

// engineRun compiles the trace's contact timeline and runs the engine
// with the scheme wrapped, under the op span. reg is the run's metric
// registry; nil gives it a fresh one (the engine's queue-depth histogram
// needs one).
func (t *tracer) engineRun(op spanID, tr *trace.Trace, scheme core.Scheme, p pipeline, reg *obs.Registry) (engineCall, error) {
	var tl []eventsim.StaticEvent
	t.timed("network.compile", op, func() error { tl = network.CompileTimeline(tr); return nil })
	if reg == nil {
		reg = obs.NewRegistry()
	}
	engSpan := t.begin("core.engine_run", op)
	ts, wrapped := wrapScheme(scheme, t.recorder, engSpan, t.op)
	res, eng, err := p.run(tr, wrapped, tl, reg)
	t.end(engSpan)
	if err != nil {
		return engineCall{}, err
	}
	t.ctx = append(t.ctx, ts)
	c := engineCall{tr: tr, res: res, eng: eng, contacts: int64(eng.ContactsDispatched()), workload: p.workload}
	t.add("mobility.contacts", float64(len(tr.Contacts)))
	t.add("eventsim.events", float64(res.SimulatedEventCount))
	t.keepMax("eventsim.queue_depth_max", reg.Histogram("eventsim/queue_depth", obs.DepthBuckets()).Snapshot().Max)
	t.add("network.transmissions", float64(res.Transmissions))
	t.add("network.deliveries", float64(res.Deliveries))
	t.add("cache.queries", float64(res.Queries))
	t.add("cache.answered", float64(res.Answered))
	return c, nil
}

// probes calls, after the operation, each layer the engine runs
// internally (or that the operation does not call at all) on the
// operation's own inputs: the engine exposes no seam for timing them in
// place. replay marks an operation that already read its trace from a
// file and exported observability on its own path.
func (t *tracer) probes(c engineCall, replay bool) error {
	rt := c.eng.Runtime()
	if rt == nil {
		return fmt.Errorf("%s: engine never reached its measurement phase", c.tr.Name)
	}

	// Normalize on generator order (pairs, then time) and on sorted input.
	pairOrder := append([]trace.Contact(nil), c.tr.Contacts...)
	sort.Slice(pairOrder, func(i, j int) bool {
		a, b := pairOrder[i], pairOrder[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Start < b.Start
	})
	unsorted := &trace.Trace{Name: c.tr.Name, N: c.tr.N, Duration: c.tr.Duration, Contacts: pairOrder}
	t.timed("trace.normalize", 0, func() error { unsorted.Normalize(); return nil })
	sorted := &trace.Trace{Name: c.tr.Name, N: c.tr.N, Duration: c.tr.Duration, Contacts: append([]trace.Contact(nil), c.tr.Contacts...)}
	t.timed("trace.normalize_sorted", 0, func() error { sorted.Normalize(); return nil })

	if !replay {
		path := filepath.Join(t.dir, "probe.trace")
		if err := trace.WriteFile(path, c.tr); err != nil {
			return err
		}
		if err := t.timed("trace.read", 0, func() error { _, err := trace.ReadFile(path); return err }); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		t.add("trace.read_bytes", float64(st.Size()))
	}

	// Rate estimation over the warm-up, as the engine does at its epoch.
	var rates centrality.RateStore
	err := t.timed("centrality.estimate", 0, func() error {
		est, err := centrality.NewEstimatorBacking(c.tr.N, 0, centrality.BackingAuto)
		if err != nil {
			return err
		}
		for _, ct := range c.tr.Contacts {
			if ct.Start > rt.Epoch {
				break
			}
			est.Observe(ct.A, ct.B)
		}
		rates, err = est.Rates(rt.Epoch)
		return err
	})
	if err != nil {
		return err
	}
	pairs := 0
	if nv, ok := rates.(centrality.NeighborVisitor); ok {
		for a := 0; a < rates.N(); a++ {
			nv.VisitNeighbors(trace.NodeID(a), func(trace.NodeID, float64) { pairs++ })
		}
	}
	t.add("centrality.rate_pairs", float64(pairs/2))

	items := rt.Catalog.View()
	exclude := map[trace.NodeID]bool{}
	for _, it := range items {
		exclude[it.Source] = true
	}
	var caching []trace.NodeID
	err = t.timed("centrality.select", 0, func() (err error) {
		caching, err = centrality.Select(centrality.PlaceGreedyCoverage, rates, 6*3600, len(rt.CachingNodes), exclude, rt.Seed)
		return err
	})
	if err != nil {
		return err
	}
	if fmt.Sprint(caching) != fmt.Sprint(rt.CachingNodes) {
		return fmt.Errorf("%s: replayed caching nodes %v differ from the engine's %v", c.tr.Name, caching, rt.CachingNodes)
	}

	trees := make([]*core.Tree, len(items))
	err = t.timed("core.build_tree", 0, func() error {
		for i, it := range items {
			tree, err := core.BuildTree(rates, it.Source, caching, rt.MaxFanout)
			if err != nil {
				return err
			}
			trees[i] = tree
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, tree := range trees {
		t.keepMax("core.tree_depth_max", float64(tree.MaxDepth()))
	}

	// One plan per tree edge, with the whole freshness window as budget:
	// what the scheme plans when a version is generated.
	calls, satisfied := 0, 0
	err = t.timed("core.plan_replication", 0, func() error {
		for i, tree := range trees {
			for parent, kids := range tree.Children {
				for _, kid := range kids {
					plan, err := core.PlanReplication(rates, parent, kid, rt.AllNodes(), items[i].FreshnessWindow, rt.PReq, rt.MaxRelays)
					if err != nil {
						return err
					}
					calls++
					if plan.Satisfied {
						satisfied++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("core.plan_replication_calls", float64(calls))
	t.add("core.plan_satisfied", float64(satisfied))

	var queries []*cache.Query
	err = t.timed("cache.generate_queries", 0, func() (err error) {
		queries, err = cache.GenerateQueries(c.workload, rt.Catalog, rt.N, rt.Epoch, rt.Horizon, rt.Seed)
		return err
	})
	if err != nil {
		return err
	}

	refreshTx := 0
	for kind, n := range c.res.TransmissionsByKind {
		if kind != "data" && kind != "query" {
			refreshTx += n
		}
	}
	t.timed("metrics.aggregate", 0, func() error {
		metrics.Aggregate(c.eng.Collector(), queries, c.res.TransmissionsByKind, refreshTx)
		return nil
	})

	if !replay {
		// Observability is off on this operation: exporting its (nil)
		// collectors is what the layer costs when disabled.
		var rt *obs.RunTrace
		var lin *obs.Lineage
		var tl *obs.Timeline
		t.timed("obs.export", 0, func() error {
			for _, write := range []func(io.Writer) error{rt.WriteJSONL, rt.WriteChromeTrace, lin.WriteJSONL, tl.WriteCSV} {
				if err := write(io.Discard); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return nil
}

// sweep records the sweep runner's cost accounting for one experiment.
func (t *tracer) sweep(cells []obs.CellCost, expNs int64, workers int) {
	busy := 0.0
	for _, c := range cells {
		t.cells = append(t.cells, 1e3*c.WallSeconds)
		busy += c.WallSeconds
	}
	t.add("expt.experiments", 1)
	t.add("expt.cells", float64(len(cells)))
	t.add("expt.busy_s", busy)
	t.add("expt.capacity_s", float64(expNs)/1e9*float64(workers))
}
