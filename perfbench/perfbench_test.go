package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"freshcache/internal/core"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{10: 1, 50: 5, 90: 9, 91: 10, 100: 10} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 25)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: selection must sort
	}
	v, pct, beyond := tailPercentile(xs, 10)
	if v != 15 || pct != 60 || beyond != 10 {
		t.Fatalf("25 samples: got value %v p%v beyond %d, want 15 p60 beyond 10", v, pct, beyond)
	}
	v, pct, beyond = tailPercentile(xs[:11], 10)
	if v != 15 || beyond != 10 || pct != 100.0/11 {
		t.Fatalf("11 samples: got value %v p%v beyond %d", v, pct, beyond)
	}
	// Too few samples for any percentile to have 10 beyond it: the
	// smallest sample, with the count that is really beyond it.
	v, _, beyond = tailPercentile([]float64{3, 1, 2}, 10)
	if v != 1 || beyond != 2 {
		t.Fatalf("3 samples: got value %v beyond %d, want 1 beyond 2", v, beyond)
	}
	// Ties keep ranks: the value has exactly 10 samples ranked above it.
	ties := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if v, _, beyond = tailPercentile(ties, 10); v != 5 || beyond != 10 {
		t.Fatalf("ties: got value %v beyond %d", v, beyond)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},     // overlaps a: 10..60 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},    // clipped to the parent: 90..100
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 35},    // grandchild: only a loses it
		{ID: 6, Parent: 1, Name: "d", Start: 20, End: 25},     // inside a and b
		{ID: 7, Name: "other root", Start: 0, End: 50},        // no children
		{ID: 8, Parent: 7, Name: "empty", Start: 20, End: 20}, // zero length
	}
	self := selfTimes(spans)
	want := map[spanID]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 30, 5: 20, 6: 5, 7: 50, 8: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d (%s): self %d, want %d", id, spans[id-1].Name, self[id], w)
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	op := r.begin("op", 0, 1)
	if err := r.timed("child", op, 1, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(op)
	if len(r.spans) != 2 || r.spans[1].Parent != op || r.spans[1].Op != 1 {
		t.Fatalf("spans %+v", r.spans)
	}
	if c := r.spans[1]; c.Start < r.spans[0].Start || c.End > r.spans[0].End {
		t.Fatalf("child %+v outside parent %+v", c, r.spans[0])
	}
}

func testEnv(t *testing.T, name string, seed int64) env {
	t.Helper()
	return env{name: name, seed: seed, dir: t.TempDir(), nproc: 1, ac: newAllocCounter()}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := testEnv(t, "api-cold", 7), testEnv(t, "api-cold", 7), testEnv(t, "api-cold", 8)
	other := testEnv(t, "large-n", 7)
	for i := 0; i < 50; i++ {
		if a.derive("op", itoa(i)) != b.derive("op", itoa(i)) {
			t.Fatalf("op %d: same workload seed gave different operation seeds", i)
		}
		if a.derive("op", itoa(i)) == c.derive("op", itoa(i)) {
			t.Fatalf("op %d: different workload seeds gave the same operation seed", i)
		}
		if a.derive("op", itoa(i)) == other.derive("op", itoa(i)) {
			t.Fatalf("op %d: two workloads share an operation seed", i)
		}
	}

	// The same seed gives the same inputs and so the same outputs; another
	// seed gives another input.
	wa, wb, wc := &apiCold{env: a}, &apiCold{env: b}, &apiCold{env: c}
	oa, ob, oc := wa.op(1), wb.op(1), wc.op(1)
	for _, o := range []outcome{oa, ob, oc} {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	if oa.digest != ob.digest || oa.contacts != ob.contacts {
		t.Fatalf("same seed: digests %s vs %s", oa.digest, ob.digest)
	}
	if oa.digest == oc.digest {
		t.Fatalf("seeds 7 and 8 gave the same operation")
	}

	// replay-observed writes its trace files from the seed: identical bytes.
	ra, rb := &replayObserved{env: testEnv(t, "replay-observed", 7)}, &replayObserved{env: testEnv(t, "replay-observed", 7)}
	sa, sb := ra.setup(0), rb.setup(0)
	if sa[0].err != nil || sb[0].err != nil {
		t.Fatal(sa[0].err, sb[0].err)
	}
	if sa[0].digest != sb[0].digest {
		t.Fatalf("replay set-up: digests %s vs %s", sa[0].digest, sb[0].digest)
	}
}

func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	for _, entry := range core.Schemes() {
		inner := entry.New()
		_, wrapped := wrapScheme(inner, newRecorder(), 0, 1)
		_, innerSR := inner.(core.StatsReporter)
		_, innerRB := inner.(core.Rebuilder)
		_, wrapSR := wrapped.(core.StatsReporter)
		_, wrapRB := wrapped.(core.Rebuilder)
		if innerSR != wrapSR || innerRB != wrapRB {
			t.Errorf("%s: StatsReporter %v→%v, Rebuilder %v→%v", entry.Name, innerSR, wrapSR, innerRB, wrapRB)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapped name %q", entry.Name, wrapped.Name())
		}
	}
}

// TestWrappedRunIdentical runs every scheme with and without the timing
// wrapper, with periodic rebuilds on so the Rebuilder path runs too: the
// results must be identical, or the traced run would measure a different
// program.
func TestWrappedRunIdentical(t *testing.T) {
	gen, err := mobility.Preset("infocom-like")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s core.Scheme) metrics.Result {
		t.Helper()
		cfg, err := apiConfig(tr, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RebuildInterval = 12 * 3600
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		res.WallClockSeconds = 0
		return res
	}
	for _, entry := range core.Schemes() {
		plain := run(entry.New())
		ts, wrapped := wrapScheme(entry.New(), newRecorder(), 0, 1)
		got := run(wrapped)
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("%s: wrapped result differs:\n plain   %+v\n wrapped %+v", entry.Name, plain, got)
		}
		if ts.contactCalls == 0 {
			t.Errorf("%s: wrapper saw no contacts", entry.Name)
		}
	}
}

func TestTracedMatchesUntraced(t *testing.T) {
	// These two workloads build the engine configuration by hand for the
	// traced run; it checks itself against the public API's result.
	for _, name := range []string{"api-cold", "replay-observed"} {
		w, err := newWorkload(testEnv(t, name, 5))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < setupRounds; r++ {
			for _, o := range w.setup(r) {
				if o.err != nil {
					t.Fatalf("%s set-up: %v", name, o.err)
				}
			}
		}
		tc := newTracer(t.TempDir())
		if err := w.traced(1, tc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.ops != 1 || len(tc.spans) == 0 {
			t.Fatalf("%s: %d ops, %d spans", name, tc.ops, len(tc.spans))
		}
	}
}

func TestCheckResultRejects(t *testing.T) {
	good := metrics.Result{FreshnessRatio: 0.5, TxPerVersion: 3}
	if err := checkResult(good, 10); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	bad := good
	bad.FreshnessRatio = 1.5
	if checkResult(bad, 10) == nil {
		t.Error("freshness 1.5 accepted")
	}
	if checkResult(good, 0) == nil {
		t.Error("zero contacts accepted")
	}
}

func TestLiveHeapWatch(t *testing.T) {
	w := watchLiveHeap()
	keep := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<16))
	}
	runtime.GC()
	time.Sleep(5 * time.Millisecond)
	lives := w.finish()
	runtime.KeepAlive(keep)
	if len(lives) == 0 || lives[len(lives)-1] < 64<<16 {
		t.Fatalf("live heap after the forced collection: %v, want at least %d bytes", lives, 64<<16)
	}
}
