package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/core"
	"freshcache/internal/network"
)

// spanID names one recorded span; 0 means "no parent".
type spanID int32

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's base instant; Op ties every span of one traced operation
// together.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, after the
// traced run, so the run itself never touches the disk for tracing.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(name string, parent spanID, op int) spanID {
	id := spanID(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.now()})
	return id
}

func (r *recorder) end(id spanID) { r.spans[id-1].End = r.now() }

// timed records fn as a span and returns fn's error.
func (r *recorder) timed(name string, parent spanID, op int, fn func() error) error {
	id := r.begin(name, parent, op)
	err := fn()
	r.end(id)
	return err
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover. Overlapping children count once: their
// intervals are merged before subtracting, and each child is clipped to
// its parent.
func selfTimes(spans []span) map[spanID]int64 {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeJSONL writes the spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedScheme wraps a scheme so the traced run sees the engine's calls
// into it: Init as a span (a child of the engine span), OnContact and
// OnGenerate as per-call counters, because a span per contact would cost
// more than the call it measures.
type timedScheme struct {
	inner  core.Scheme
	rec    *recorder
	parent spanID
	op     int

	contactNs, contactCalls   int64
	generateNs, generateCalls int64
}

func (t *timedScheme) Name() string { return t.inner.Name() }

func (t *timedScheme) Init(rt *core.Runtime) error {
	return t.rec.timed("core.scheme_init", t.parent, t.op, func() error { return t.inner.Init(rt) })
}

func (t *timedScheme) OnGenerate(it cache.Item, version int, now float64) {
	t0 := time.Now()
	t.inner.OnGenerate(it, version, now)
	t.generateNs += int64(time.Since(t0))
	t.generateCalls++
}

func (t *timedScheme) OnContact(c *network.Contact) {
	t0 := time.Now()
	t.inner.OnContact(c)
	t.contactNs += int64(time.Since(t0))
	t.contactCalls++
}

// wrapScheme returns the timing wrapper around s together with the scheme
// to hand to the engine. The engine type-asserts core.StatsReporter and
// core.Rebuilder on its scheme, so the returned value implements each of
// them exactly when s does; otherwise the traced run would measure a
// different program.
func wrapScheme(s core.Scheme, rec *recorder, parent spanID, op int) (*timedScheme, core.Scheme) {
	t := &timedScheme{inner: s, rec: rec, parent: parent, op: op}
	sr, isSR := s.(core.StatsReporter)
	rb, isRB := s.(core.Rebuilder)
	switch {
	case isSR && isRB:
		return t, struct {
			*timedScheme
			core.StatsReporter
			core.Rebuilder
		}{t, sr, rb}
	case isSR:
		return t, struct {
			*timedScheme
			core.StatsReporter
		}{t, sr}
	case isRB:
		return t, struct {
			*timedScheme
			core.Rebuilder
		}{t, rb}
	}
	return t, t
}
