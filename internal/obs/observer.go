package obs

import (
	"io"
	"sort"
	"sync"

	"freshcache/internal/metrics"
)

// Config controls trace collection for an Observer's runs.
type Config struct {
	// SampleEvery keeps one event in every SampleEvery emitted (1 = keep
	// all). Raise it for million-contact runs.
	SampleEvery int
	// BufferCap bounds the per-run ring buffer (DefaultBufferCap if 0).
	BufferCap int
	// Lineage enables causal span collection for each run; OpenRun hands
	// out no lineage collector when it is false.
	Lineage bool
	// LineageCap bounds per-run span storage (DefaultLineageCap if 0).
	LineageCap int
	// TimelineTick enables simulated-time telemetry sampling on the given
	// sim-time period in seconds; 0 disables (OpenRun hands out no
	// timeline) and a negative value asks the engine to pick a default tick.
	TimelineTick float64
	// TimelineCap bounds per-run point storage (DefaultTimelineCap if 0).
	TimelineCap int
}

// Observer is the sweep/experiment-level sink: it hands out per-run
// traces, collects the committed ones, rolls per-scheme result histograms
// up, and tracks sweep progress. All methods are safe for concurrent use
// and no-ops on a nil receiver, so `-obs` off means passing nil around.
//
// Determinism contract: each run writes only to its own RunTrace (no
// cross-run interleaving), and flushes order committed traces by label
// with run order inside each label preserved. Output bytes therefore do
// not depend on how many sweep workers ran, only on the set of runs.
type Observer struct {
	cfg Config
	// Metrics is the process-wide registry backing the observer's
	// counters; exported so CLIs can snapshot it into manifests/expvar.
	Metrics *Registry

	mu        sync.Mutex
	traces    []*RunTrace
	lineages  []*Lineage
	timelines []*Timeline
	scheme    map[string]*schemeRollup

	cellsQueued   *Counter
	cellsDone     *Counter
	cellsFailed   *Counter
	cellsSkipped  *Counter
	cellsReplayed *Counter
	queueDepth    *Gauge
}

type schemeRollup struct {
	runs          int
	transmissions int
	deliveries    int
	generated     int
	delayHist     *metrics.Hist
	ageHist       *metrics.Hist
}

// NewObserver returns an observer with the given trace config and a fresh
// registry.
func NewObserver(cfg Config) *Observer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.BufferCap < 1 {
		cfg.BufferCap = DefaultBufferCap
	}
	reg := NewRegistry()
	return &Observer{
		cfg:           cfg,
		Metrics:       reg,
		scheme:        make(map[string]*schemeRollup),
		cellsQueued:   reg.Counter("sweep/cells_queued"),
		cellsDone:     reg.Counter("sweep/cells_done"),
		cellsFailed:   reg.Counter("sweep/cells_failed"),
		cellsSkipped:  reg.Counter("sweep/cells_skipped"),
		cellsReplayed: reg.Counter("sweep/cells_replayed"),
		queueDepth:    reg.Gauge("sweep/queue_depth"),
	}
}

// Registry returns the observer's metric registry (nil for a nil
// observer), so call sites can thread it without their own nil checks.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// RunScope is one labelled run's share of an Observer: its own event
// trace, its lineage and timeline collectors (nil when disabled), the
// shared registry and the timeline tick in sim seconds (0 = off, negative
// = engine default). From a nil Observer every field is zero and Commit
// does nothing, so callers need no -obs conditionals.
type RunScope struct {
	Trace        *RunTrace
	Metrics      *Registry
	Lineage      *Lineage
	Timeline     *Timeline
	TimelineTick float64

	o *Observer
}

// OpenRun opens the per-run collectors for one labelled run of scheme.
// The caller owns them until Commit.
func (o *Observer) OpenRun(label, scheme string) RunScope {
	if o == nil {
		return RunScope{}
	}
	s := RunScope{
		Trace:        NewRunTrace(label, o.cfg.SampleEvery, o.cfg.BufferCap),
		Metrics:      o.Metrics,
		TimelineTick: o.cfg.TimelineTick,
		o:            o,
	}
	if o.cfg.Lineage {
		s.Lineage = NewLineage(label, scheme, o.cfg.LineageCap)
	}
	if o.cfg.TimelineTick != 0 {
		s.Timeline = NewTimeline(label, o.cfg.TimelineCap)
	}
	return s
}

// Commit hands a successful run's collectors back to the observer and
// folds its result into the per-scheme roll-ups. Failed runs skip Commit,
// so exports carry completed runs only.
func (s RunScope) Commit(res metrics.Result) {
	o := s.o
	if o == nil {
		return
	}
	o.mu.Lock()
	o.traces = append(o.traces, s.Trace)
	if s.Lineage != nil {
		o.lineages = append(o.lineages, s.Lineage)
	}
	if s.Timeline != nil {
		o.timelines = append(o.timelines, s.Timeline)
	}
	o.mu.Unlock()
	o.RecordRun(res.Scheme, res)
}

// CellQueued notes that n sweep cells were enqueued.
func (o *Observer) CellQueued(n int) {
	if o == nil {
		return
	}
	o.cellsQueued.Add(int64(n))
	o.updateQueueDepth()
}

// CellDone notes that one sweep cell ran to completion. Cells that failed,
// were drained after a failure, or were replayed from a checkpoint journal
// are reported via CellFailed/CellSkipped/CellReplayed instead, so the
// counters never overcount actual work.
func (o *Observer) CellDone() {
	if o == nil {
		return
	}
	o.cellsDone.Inc()
	o.updateQueueDepth()
}

// CellFailed notes that one sweep cell failed permanently (after retries).
func (o *Observer) CellFailed() {
	if o == nil {
		return
	}
	o.cellsFailed.Inc()
	o.updateQueueDepth()
}

// CellSkipped notes that one sweep cell was drained without running
// because an earlier cell already failed the sweep.
func (o *Observer) CellSkipped() {
	if o == nil {
		return
	}
	o.cellsSkipped.Inc()
	o.updateQueueDepth()
}

// CellReplayed notes that one sweep cell's result was replayed from a
// checkpoint journal instead of being executed.
func (o *Observer) CellReplayed() {
	if o == nil {
		return
	}
	o.cellsReplayed.Inc()
	o.updateQueueDepth()
}

// updateQueueDepth recomputes the queue-depth gauge as queued minus every
// terminal disposition (done, failed, skipped, replayed).
func (o *Observer) updateQueueDepth() {
	settled := o.cellsDone.Value() + o.cellsFailed.Value() +
		o.cellsSkipped.Value() + o.cellsReplayed.Value()
	o.queueDepth.Set(float64(o.cellsQueued.Value() - settled))
}

// RecordRun folds one run's aggregated result into the per-scheme
// roll-ups.
func (o *Observer) RecordRun(scheme string, r metrics.Result) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ru := o.scheme[scheme]
	if ru == nil {
		ru = &schemeRollup{
			delayHist: metrics.NewHist(metrics.DelayBuckets()),
			ageHist:   metrics.NewHist(metrics.DelayBuckets()),
		}
		o.scheme[scheme] = ru
	}
	ru.runs++
	ru.transmissions += r.Transmissions
	ru.deliveries += r.Deliveries
	ru.generated += r.VersionsGenerated
	ru.delayHist.Merge(r.DeliveryDelayHist)
	ru.ageHist.Merge(r.RefreshAgeHist)
}

// SchemeRollup is the published per-scheme roll-up: merged result
// histograms plus the cost/benefit totals reports need (transmissions per
// delivered refresh, per generated version).
type SchemeRollup struct {
	Scheme            string        `json:"scheme"`
	Runs              int           `json:"runs"`
	Transmissions     int           `json:"transmissions"`
	Deliveries        int           `json:"deliveries"`
	VersionsGenerated int           `json:"versionsGenerated"`
	DeliveryDelayHist *metrics.Hist `json:"deliveryDelayHist,omitempty"`
	RefreshAgeHist    *metrics.Hist `json:"refreshAgeHist,omitempty"`
}

// SchemeRollups returns the per-scheme roll-ups in ascending scheme order.
func (o *Observer) SchemeRollups() []SchemeRollup {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]SchemeRollup, 0, len(o.scheme))
	for name, ru := range o.scheme {
		out = append(out, SchemeRollup{
			Scheme:            name,
			Runs:              ru.runs,
			Transmissions:     ru.transmissions,
			Deliveries:        ru.deliveries,
			VersionsGenerated: ru.generated,
			DeliveryDelayHist: ru.delayHist.Clone(),
			RefreshAgeHist:    ru.ageHist.Clone(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scheme < out[j].Scheme })
	return out
}

// sortedTraces returns the committed traces ordered by label (stable, so
// multiple commits under one label keep commit order — only meaningful
// when labels are unique, which the expt layer guarantees).
func (o *Observer) sortedTraces() []*RunTrace {
	o.mu.Lock()
	ts := make([]*RunTrace, len(o.traces))
	copy(ts, o.traces)
	o.mu.Unlock()
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Label < ts[j].Label })
	return ts
}

// EventStats sums trace, lineage and timeline volume across committed
// runs.
type EventStats struct {
	Runs     int    `json:"runs"`
	Seen     uint64 `json:"eventsSeen"`
	Buffered uint64 `json:"eventsBuffered"`
	Dropped  uint64 `json:"eventsDropped"`
	// Lineage span volume (0 unless -lineage was on).
	Spans        uint64 `json:"spans,omitempty"`
	SpansDropped uint64 `json:"spansDropped,omitempty"`
	// Timeline point volume (0 unless -timeline-tick was on).
	TimelinePoints  uint64 `json:"timelinePoints,omitempty"`
	TimelineDropped uint64 `json:"timelineDropped,omitempty"`
}

// Stats reports the committed trace volume.
func (o *Observer) Stats() EventStats {
	var s EventStats
	if o == nil {
		return s
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range o.traces {
		s.Runs++
		s.Seen += t.Seen()
		s.Buffered += uint64(t.Len())
		s.Dropped += t.Dropped()
	}
	for _, l := range o.lineages {
		s.Spans += uint64(l.Len())
		s.SpansDropped += l.Dropped()
	}
	for _, tl := range o.timelines {
		s.TimelinePoints += uint64(tl.Len())
		s.TimelineDropped += tl.Dropped()
	}
	return s
}

// WriteJSONL flushes every committed trace as JSON Lines, runs in sorted
// label order, events in emission order within a run.
func (o *Observer) WriteJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	for _, t := range o.sortedTraces() {
		if err := t.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace flushes every committed trace as one Chrome trace-event
// JSON document (one pid per run, sorted label order).
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return writeChromeTraces(w, nil)
	}
	return writeChromeTraces(w, o.sortedTraces())
}

// sortedLineages returns the committed lineages ordered by label.
func (o *Observer) sortedLineages() []*Lineage {
	o.mu.Lock()
	ls := make([]*Lineage, len(o.lineages))
	copy(ls, o.lineages)
	o.mu.Unlock()
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Label < ls[j].Label })
	return ls
}

// WriteLineageJSONL flushes every committed lineage as JSON Lines, runs in
// sorted label order, spans in creation order within a run — the same
// determinism contract as WriteJSONL.
func (o *Observer) WriteLineageJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	for _, l := range o.sortedLineages() {
		if err := l.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTimelineCSV flushes every committed timeline as one CSV document
// (single header, runs in sorted label order, points in sampling order
// within a run).
func (o *Observer) WriteTimelineCSV(w io.Writer) error {
	if o == nil {
		return nil
	}
	if _, err := io.WriteString(w, TimelineCSVHeader+"\n"); err != nil {
		return err
	}
	o.mu.Lock()
	tls := make([]*Timeline, len(o.timelines))
	copy(tls, o.timelines)
	o.mu.Unlock()
	sort.SliceStable(tls, func(i, j int) bool { return tls[i].Label < tls[j].Label })
	for _, tl := range tls {
		if err := tl.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
