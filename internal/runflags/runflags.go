// Package runflags declares and wires the run flags cmd/experiments and
// cmd/freshsim share — profiling, checkpoint/resume, observability and the
// results store — so both CLIs parse, validate and act on them identically.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"freshcache/internal/expt"
	"freshcache/internal/obs"
	"freshcache/internal/obs/store"
)

// Flags holds the shared flag values once the caller's FlagSet is parsed.
type Flags struct {
	CPUProfile, MemProfile string
	Checkpoint             string
	Resume                 bool
	ObsDir                 string
	ObsSample, ObsBuffer   int
	Lineage                bool
	TimelineTick           Tick
	Store                  string
}

// Register declares the shared flags on fs and returns where their parsed
// values land.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint journal (JSONL): each completed sweep cell or replicate is appended and fsynced as it finishes, so an interrupted run can be resumed")
	fs.BoolVar(&f.Resume, "resume", false, "replay completed cells or replicates from the -checkpoint journal and execute only the remainder; the resumed output is byte-identical to an uninterrupted run")
	fs.StringVar(&f.ObsDir, "obs", "", "directory for observability output: events.jsonl (per-run event trace), trace.json (Chrome trace-event JSON for Perfetto), metrics.om (OpenMetrics registry snapshot) and manifest.json")
	fs.IntVar(&f.ObsSample, "obs-sample", 1, "keep 1 in N trace events (1 = all)")
	fs.IntVar(&f.ObsBuffer, "obs-buffer", obs.DefaultBufferCap, "per-run trace ring-buffer capacity in events")
	fs.BoolVar(&f.Lineage, "lineage", false, "collect causal refresh-lineage spans (generation → duty → handoff → delivery trees) per run and write lineage.jsonl to the -obs directory (requires -obs)")
	fs.Var(&f.TimelineTick, "timeline-tick", "simulated-time telemetry sampling `period`, in seconds (3600) or as a duration (1h): snapshot freshness ratio, cumulative counts and per-node/item copy age every tick into timeline.csv in the -obs directory (0 = off, negative = auto tick of measurement-phase/240; requires -obs)")
	fs.StringVar(&f.Store, "store", "", "append this run's record (provenance, metric snapshot, dispositions and, for sweeps, per-cell costs) to the cross-run results store at this path (JSONL; query with obsreport trend/query/gate)")
	return f
}

// Tick is the -timeline-tick value in simulated seconds. It parses a bare
// number as seconds and anything else as a Go duration, so "3600" and
// "1h" set the same tick.
type Tick float64

func (t *Tick) String() string { return strconv.FormatFloat(float64(*t), 'g', -1, 64) }

func (t *Tick) Set(s string) error {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		*t = Tick(v)
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return errors.New("want seconds (3600) or a duration (1h)")
	}
	*t = Tick(d.Seconds())
	return nil
}

// StartProfile starts the -cpuprofile CPU profile. The returned stop
// function ends it and writes the -memprofile heap profile; call it once
// the profiled work is done.
func (f *Flags) StartProfile() (stop func(), err error) {
	stopCPU := func() {}
	if f.CPUProfile != "" {
		out, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopCPU = func() { pprof.StopCPUProfile(); out.Close() }
	}
	return func() {
		if f.MemProfile != "" {
			if err := writeHeapProfile(f.MemProfile); err != nil {
				slog.Error("memprofile", "err", err)
			}
		}
		stopCPU()
	}, nil
}

func writeHeapProfile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Run is one CLI invocation's shared wiring, from Start to Close.
type Run struct {
	// Observer exists when anything consumes it: -obs, -store or the
	// caller's own consumer (see Start). Nil otherwise, so hot paths stay
	// zero-cost.
	Observer *obs.Observer
	// Journal is the -checkpoint journal, nil without -checkpoint.
	Journal *expt.Journal
	// Ledger accounts every cell's disposition and collects the
	// permanent-failure roster across the run.
	Ledger *expt.Ledger

	flags *Flags
	tool  string
	args  []string
	seed  int64
	start time.Time
}

// Start validates the checkpoint and observability flags, opens the
// checkpoint journal and builds the observer for one invocation of tool
// with the given arguments and seed. observe requests an observer even
// without -obs or -store. Close the Run when the invocation ends.
func (f *Flags) Start(tool string, args []string, seed int64, observe bool) (*Run, error) {
	switch {
	case f.ObsSample < 1:
		return nil, fmt.Errorf("obs-sample must be >= 1, got %d", f.ObsSample)
	case f.Resume && f.Checkpoint == "":
		return nil, errors.New("-resume requires -checkpoint (the journal to replay)")
	case (f.Lineage || f.TimelineTick != 0) && f.ObsDir == "":
		return nil, errors.New("-lineage and -timeline-tick require -obs (the output directory)")
	}
	r := &Run{Ledger: &expt.Ledger{}, flags: f, tool: tool, args: args, seed: seed, start: time.Now()}
	if f.ObsDir != "" {
		if err := os.MkdirAll(f.ObsDir, 0o755); err != nil {
			return nil, err
		}
	}
	if f.ObsDir != "" || f.Store != "" || observe {
		r.Observer = obs.NewObserver(obs.Config{SampleEvery: f.ObsSample, BufferCap: f.ObsBuffer,
			Lineage: f.Lineage, TimelineTick: float64(f.TimelineTick)})
	}
	if f.Checkpoint != "" {
		j, err := expt.OpenJournal(f.Checkpoint, f.Resume)
		if err != nil {
			return nil, err
		}
		r.Journal = j
		if f.Resume {
			slog.Info("resuming from checkpoint journal", "journal", f.Checkpoint, "completedCells", j.Len())
		}
	}
	return r, nil
}

// Close closes the checkpoint journal.
func (r *Run) Close() error { return r.Journal.Close() }

// WriteObs writes the observer's exports into the -obs directory and
// returns their paths: the event trace as JSONL and Chrome trace JSON, the
// OpenMetrics snapshot, and the lineage spans and timeline when enabled.
// Without -obs it writes nothing.
func (r *Run) WriteObs() ([]string, error) {
	if r.Observer == nil || r.flags.ObsDir == "" {
		return nil, nil
	}
	o := r.Observer
	files := []struct {
		name  string
		on    bool
		write func(*os.File) error
	}{
		{"events.jsonl", true, func(f *os.File) error { return o.WriteJSONL(f) }},
		{"trace.json", true, func(f *os.File) error { return o.WriteChromeTrace(f) }},
		{"metrics.om", true, func(f *os.File) error { return obs.WriteOpenMetrics(f, o.Metrics.Snapshot()) }},
		{"lineage.jsonl", r.flags.Lineage, func(f *os.File) error { return o.WriteLineageJSONL(f) }},
		{"timeline.csv", r.flags.TimelineTick != 0, func(f *os.File) error { return o.WriteTimelineCSV(f) }},
	}
	var paths []string
	for _, f := range files {
		if !f.on {
			continue
		}
		path := filepath.Join(r.flags.ObsDir, f.name)
		out, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := f.write(out); err != nil {
			out.Close()
			return nil, fmt.Errorf("obs: %s: %w", f.name, err)
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Manifest returns the run manifest with the fields both CLIs fill:
// provenance, outputs, the observer's metrics, event stats and scheme
// roll-ups, the failure roster, the checkpoint/resume accounting and the
// resources used so far. The caller adds its own Config and writes it.
func (r *Run) Manifest(outputs []string) *obs.Manifest {
	m := obs.NewManifest(r.tool)
	m.Command = r.command()
	m.Seed = r.seed
	m.Outputs = outputs
	if r.Observer != nil {
		snap := r.Observer.Metrics.Snapshot()
		m.Metrics = &snap
		st := r.Observer.Stats()
		m.Events = &st
		m.SchemeStats = r.Observer.SchemeRollups()
	}
	m.Failures = r.Ledger.Failures()
	if r.flags.Checkpoint != "" || len(m.Failures) > 0 {
		m.Resume = r.resumeSummary()
	}
	m.FinishResources(r.start)
	return m
}

// AppendRecord appends the run's record to the -store results store; it
// does nothing without -store. digest identifies the result-determining
// configuration, so history can be filtered to comparable runs; cells is
// the per-cell cost attribution, if any. Call it after all stdout, so
// -store never perturbs the printed output.
func (r *Run) AppendRecord(digest string, cells []obs.CellCost) error {
	if r.flags.Store == "" {
		return nil
	}
	rec := store.NewRecord(r.tool)
	rec.Command = r.command()
	rec.Seed = r.seed
	rec.ConfigDigest = digest
	rec.WallClockSeconds = time.Since(r.start).Seconds()
	snap := r.Observer.Metrics.Snapshot()
	rec.Metrics = store.FlattenMetrics(snap, r.Observer.SchemeRollups())
	rec.Histograms = snap.Histograms
	rec.Cells = cells
	rec.Resume = r.resumeSummary()
	if err := store.Append(r.flags.Store, rec); err != nil {
		return err
	}
	slog.Info("run record appended to results store", "store", r.flags.Store)
	return nil
}

func (r *Run) command() []string { return append([]string{r.tool}, r.args...) }

func (r *Run) resumeSummary() *obs.ResumeSummary {
	rs := r.Ledger.Summary()
	rs.Journal = r.flags.Checkpoint
	rs.Resumed = r.flags.Resume
	return &rs
}
