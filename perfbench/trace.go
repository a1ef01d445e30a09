package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call boundary: a setup constructor, a Run call or a
// per-layer driver loop. Count is the work done inside it (requests,
// calls, forwards), taken at the same boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so untraced runs share the traced code paths.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if k := len(t.open); k > 0 {
		parent = t.spans[t.open[k-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, which must be idx.
func (t *tracer) end(idx int, count int64) {
	if t == nil {
		return
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].End = int64(time.Since(t.t0))
	t.spans[idx].Count = count
}

// layerStat aggregates the spans of one layer.
type layerStat struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Count  int64   `json:"count"`
}

// selfTimes sums per layer each span's self time: its duration minus the
// time its child spans cover. Spans are strictly nested (one goroutine
// records them), so children never overlap.
func (t *tracer) selfTimes() []layerStat {
	child := make(map[int]int64)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	by := make(map[string]*layerStat)
	for _, s := range t.spans {
		st := by[s.Layer]
		if st == nil {
			st = &layerStat{Layer: s.Layer}
			by[s.Layer] = st
		}
		st.Spans++
		st.SelfMs += float64(s.End-s.Start-child[s.ID]) / 1e6
		st.Count += s.Count
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// write stores the spans and the per-layer self times as one JSON file.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Spans  []span      `json:"spans"`
		Layers []layerStat `json:"layers"`
	}{t.spans, t.selfTimes()}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes renders the per-layer table for a reader of the run.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-10s %6s %12s %14s\n", "layer", "spans", "self_ms", "count")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-10s %6d %12.3f %14d\n", st.Layer, st.Spans, st.SelfMs, st.Count)
	}
}
