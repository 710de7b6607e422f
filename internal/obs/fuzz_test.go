package obs

import (
	"bytes"
	"testing"

	"freshcache/internal/metrics"
)

// Fuzz targets for the readers obsreport runs on persisted exports: any
// input either fails with an error or parses into records whose writer
// output reads back and rewrites to exactly the same bytes. The seed
// corpora, built from the writers' own output, run under go test;
// `go test -fuzz=FuzzReadTimelineCSV ./internal/obs` explores further.

// timelineCSV writes parsed timeline records back through the exporter's
// row writer, under the header.
func timelineCSV(recs []TimelineRecord) []byte {
	out := []byte(TimelineCSVHeader + "\n")
	for _, r := range recs {
		out = appendTimelineCSV(out, r.Run, r.TimelinePoint)
	}
	return out
}

func FuzzReadTimelineCSV(f *testing.F) {
	o := NewObserver(Config{TimelineTick: 3600})
	for _, label := range []string{"E2/infocom-like/p00/hierarchical/r0", "E13/ext-community/p00/spray/r1"} {
		run := o.OpenRun(label, "s")
		run.Timeline.Sample(3600, "freshness_ratio", -1, -1, 0.75)
		run.Timeline.Sample(3600, "copy_age", 3, 1, 360.5)
		run.Timeline.Sample(7200, "contacts", -1, -1, 1e6)
		run.Commit(metrics.Result{Scheme: "s"})
	}
	var buf bytes.Buffer
	if err := o.WriteTimelineCSV(&buf); err != nil {
		f.Fatal(err)
	}
	if recs, err := ReadTimelineCSV(bytes.NewReader(buf.Bytes())); err != nil || !bytes.Equal(timelineCSV(recs), buf.Bytes()) {
		f.Fatalf("export did not round-trip (%v):\n%q", err, buf.Bytes())
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n\n" + buf.String()))
	f.Add([]byte(TimelineCSVHeader + "\n"))
	f.Add([]byte("\nrun,1,fresh,,,0.5\n"))
	f.Add([]byte(TimelineCSVHeader + "\nr,NaN,s,-4,+2,-Inf\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadTimelineCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		out := timelineCSV(recs)
		again, err := ReadTimelineCSV(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("writer output rejected: %v\n%q", err, out)
		}
		if rewritten := timelineCSV(again); !bytes.Equal(rewritten, out) {
			t.Fatalf("writer output did not round-trip:\n%q\n%q", out, rewritten)
		}
	})
}

// spansJSONL writes parsed span records back through the exporter's line
// writer.
func spansJSONL(recs []SpanRecord) []byte {
	var out []byte
	for _, r := range recs {
		out = appendSpanJSONL(out, r.Run, r.Scheme, r.Span)
	}
	return out
}

func FuzzReadSpansJSONL(f *testing.F) {
	lin := NewLineage("E2/infocom-like/p00/hierarchical/r0", "hierarchical", 0)
	g := lin.Generate(10.5, 3, 2, 1)
	d := lin.Duty(11, g, 4, 3, 2)
	h := lin.Handoff(20.25, d, 4, 7, 3, 2)
	lin.Delivered(30.125, h, 7, 9, 3, 2, 19.625)
	lin.Reassign(40, d, 5, 3)
	var buf bytes.Buffer
	if err := lin.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	if recs, err := ReadSpansJSONL(bytes.NewReader(buf.Bytes())); err != nil || !bytes.Equal(spansJSONL(recs), buf.Bytes()) {
		f.Fatalf("export did not round-trip (%v):\n%q", err, buf.Bytes())
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n" + buf.String() + "\n\n"))
	f.Add([]byte(`{"run":"a\"b","scheme":"s","span":1,"kind":"generate","t":0,"from":-3}` + "\n"))
	f.Add([]byte(`{"run":"r","scheme":"s","span":1,"kind":"generate","t":0,"bogus":1}` + "\n"))
	f.Add([]byte(`{"run":"r","span":0}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadSpansJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		out := spansJSONL(recs)
		again, err := ReadSpansJSONL(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("writer output rejected: %v\n%q", err, out)
		}
		if rewritten := spansJSONL(again); !bytes.Equal(rewritten, out) {
			t.Fatalf("writer output did not round-trip:\n%q\n%q", out, rewritten)
		}
	})
}
