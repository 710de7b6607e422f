package obs

import (
	"bytes"
	"strings"
	"testing"

	"freshcache/internal/metrics"
)

// TestLineageNilSafety: every method must no-op (and hand back the "no
// span" ID) on a nil collector, so scheme instrumentation needs no guards.
func TestLineageNilSafety(t *testing.T) {
	var lin *Lineage
	if id := lin.Generate(0, 1, 1, 0); id != 0 {
		t.Errorf("nil Generate = %d, want 0", id)
	}
	if id := lin.Duty(0, 1, 2, 1, 1); id != 0 {
		t.Errorf("nil Duty = %d, want 0", id)
	}
	if id := lin.Handoff(0, 1, 2, 3, 1, 1); id != 0 {
		t.Errorf("nil Handoff = %d, want 0", id)
	}
	if id := lin.Delivered(0, 1, 2, 3, 1, 1, 0); id != 0 {
		t.Errorf("nil Delivered = %d, want 0", id)
	}
	if id := lin.Reassign(0, 1, 2, 1); id != 0 {
		t.Errorf("nil Reassign = %d, want 0", id)
	}
	if lin.Root(1, 1) != 0 || lin.LatestRoot(1) != 0 || lin.Len() != 0 || lin.Dropped() != 0 {
		t.Error("nil lookups should return zero values")
	}
	var tl *Timeline
	tl.Sample(0, "x", -1, -1, 1)
	if tl.Len() != 0 || tl.Dropped() != 0 {
		t.Error("nil timeline should stay empty")
	}
}

// TestLineageChainAndRoots builds a generation → duty → handoff → delivery
// chain and checks parenting, root lookup and version supersession.
func TestLineageChainAndRoots(t *testing.T) {
	lin := NewLineage("run", "hierarchical", 0)
	g1 := lin.Generate(100, 7, 1, 3)
	if lin.Root(7, 1) != g1 || lin.LatestRoot(7) != g1 {
		t.Fatal("root lookup after generate failed")
	}
	g2 := lin.Generate(200, 7, 2, 3)
	if lin.Root(7, 1) != g1 || lin.Root(7, 2) != g2 {
		t.Fatal("per-version roots must coexist")
	}
	if lin.LatestRoot(7) != g2 {
		t.Fatal("LatestRoot must follow the newest version")
	}
	d := lin.Duty(210, g2, 4, 7, 2)
	h := lin.Handoff(220, d, 4, 5, 7, 2)
	del := lin.Delivered(230, h, 5, 6, 7, 2, 30)
	re := lin.Reassign(240, g2, 3, 7)
	spans := lin.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	byID := map[SpanID]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if byID[del].Parent != h || byID[h].Parent != d || byID[d].Parent != g2 {
		t.Fatal("parent chain broken")
	}
	if byID[del].Age != 30 {
		t.Fatalf("delivery age = %v, want 30", byID[del].Age)
	}
	if byID[re].Ver != -1 {
		t.Fatalf("reassign version = %d, want -1 (not version-specific)", byID[re].Ver)
	}

	tree := BuildSpanTree([]SpanRecord{
		{Run: "run", Scheme: "hierarchical", Span: byID[g2]},
		{Run: "run", Scheme: "hierarchical", Span: byID[d]},
		{Run: "run", Scheme: "hierarchical", Span: byID[h]},
		{Run: "run", Scheme: "hierarchical", Span: byID[del]},
	})
	if got := tree.Depth(del); got != 3 {
		t.Fatalf("delivery depth = %d, want 3", got)
	}
}

// TestLineageCapDropsNew: past the cap new spans are dropped (not ring-
// overwritten), so every stored span's parent is stored too.
func TestLineageCapDropsNew(t *testing.T) {
	lin := NewLineage("run", "s", 2)
	a := lin.Generate(0, 1, 1, 0)
	b := lin.Duty(1, a, 2, 1, 1)
	c := lin.Handoff(2, b, 2, 3, 1, 1)
	if c != 0 {
		t.Fatalf("over-cap span got ID %d, want 0", c)
	}
	if lin.Len() != 2 || lin.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", lin.Len(), lin.Dropped())
	}
	// A child of a dropped span records parent 0 — never a dangling ID.
	if d := lin.Delivered(3, c, 2, 3, 1, 1, 0); d != 0 {
		t.Fatalf("children past the cap must be dropped too, got %d", d)
	}
}

// TestLineageJSONLRoundTrip: the writer's bytes parse back into the exact
// span set, and writing twice yields identical bytes.
func TestLineageJSONLRoundTrip(t *testing.T) {
	lin := NewLineage("E2/p00/r0", "epidemic", 0)
	g := lin.Generate(10.5, 3, 2, 1)
	h := lin.Handoff(20.25, g, 1, 4, 3, 2)
	lin.Delivered(30.125, h, 4, 9, 3, 2, 19.625)

	var b1, b2 bytes.Buffer
	if err := lin.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := lin.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated WriteJSONL not byte-identical")
	}
	records, err := ReadSpansJSONL(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("round-trip got %d records, want 3", len(records))
	}
	for i, want := range lin.Spans() {
		got := records[i]
		if got.Run != "E2/p00/r0" || got.Scheme != "epidemic" || got.Span != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}

	// Strict reader: unknown fields are an error, not silently dropped.
	if _, err := ReadSpansJSONL(strings.NewReader(`{"run":"r","scheme":"s","span":1,"kind":"generate","t":0,"bogus":1}` + "\n")); err == nil {
		t.Error("reader accepted an unknown field")
	}
}

// TestTimelineRoundTrip: CSV write/read preserves samples, including the
// empty node/item columns of scenario-wide series.
func TestTimelineRoundTrip(t *testing.T) {
	tl := NewTimeline("run-x", 2)
	tl.Sample(100, "freshness_ratio", -1, -1, 0.75)
	tl.Sample(100, "copy_age", 3, 1, 360)
	tl.Sample(200, "copy_age", 3, 1, 420) // over cap: dropped
	if tl.Len() != 2 || tl.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tl.Len(), tl.Dropped())
	}
	var buf bytes.Buffer
	buf.WriteString(TimelineCSVHeader + "\n")
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := ReadTimelineCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("round-trip got %d records, want 2", len(records))
	}
	if r := records[0]; r.Run != "run-x" || r.Series != "freshness_ratio" || r.Node != -1 || r.Item != -1 || r.Val != 0.75 {
		t.Fatalf("record 0 = %+v", r)
	}
	if r := records[1]; r.Node != 3 || r.Item != 1 || r.Val != 360 {
		t.Fatalf("record 1 = %+v", r)
	}
}

// TestObserverLineageTimelineGating: collectors exist only when configured,
// and flushes order committed runs by label.
func TestObserverLineageTimelineGating(t *testing.T) {
	var none *Observer
	if none.OpenRun("a", "s") != (RunScope{}) {
		t.Fatal("nil observer opened collectors")
	}
	none.OpenRun("a", "s").Commit(metrics.Result{}) // no-op, must not panic

	off := NewObserver(Config{})
	if run := off.OpenRun("a", "s"); run.Lineage != nil || run.Timeline != nil || run.TimelineTick != 0 {
		t.Fatal("collectors handed out while disabled")
	}

	on := NewObserver(Config{Lineage: true, TimelineTick: -1})
	rb := on.OpenRun("b", "s2")
	ra := on.OpenRun("a", "s1")
	if rb.Lineage == nil || rb.Timeline == nil || rb.TimelineTick != -1 {
		t.Fatal("on observer withheld collectors")
	}
	rb.Lineage.Generate(0, 1, 1, 0)
	ra.Lineage.Generate(0, 2, 1, 0)
	rb.Commit(metrics.Result{})
	ra.Commit(metrics.Result{})
	var buf bytes.Buffer
	if err := on.WriteLineageJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"run":"a"`) || !strings.Contains(lines[1], `"run":"b"`) {
		t.Fatalf("flush not sorted by label:\n%s", buf.String())
	}

	st := on.Stats()
	if st.Spans != 2 {
		t.Fatalf("stats spans = %d, want 2", st.Spans)
	}
}
