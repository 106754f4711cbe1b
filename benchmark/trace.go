package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one harness-side interval around a call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`   // layer.call, e.g. "dnnd.Build"
	Group  string `json:"group"`  // the rep or request block it belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced (end-to-end) run pays no
// tracing cost.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // open span IDs on the harness goroutine
	group string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setGroup names the rep or request block subsequent spans belong to.
func (t *tracer) setGroup(g string) {
	if t != nil {
		t.group = g
	}
}

// begin opens a span under the innermost open one and returns the
// function that closes it. Only the harness goroutine calls it, so
// spans nest strictly.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: t.group,
		Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].End = int64(time.Since(t.epoch))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// unattributed is the time since the tracer started that no top-level
// span covers: the harness's own bookkeeping between calls.
func (t *tracer) unattributed() time.Duration {
	total := time.Since(t.epoch)
	for _, s := range t.spans {
		if s.Parent == 0 {
			total -= time.Duration(s.End - s.Start)
		}
	}
	return total
}

// layerTime is one span name's share of the run.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // total minus the time its child spans cover
}

// byLayer aggregates the spans by name, with self time = duration
// minus the children's durations (children never overlap: the harness
// opens them one at a time).
func (t *tracer) byLayer() []layerTime {
	child := make(map[int]int64)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	agg := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeTable prints the per-layer span table.
func (t *tracer) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%-28s %7s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, lt := range t.byLayer() {
		fmt.Fprintf(w, "%-28s %7d %10.3f %10.3f\n", lt.Name, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
	}
}

// writeJSON writes the spans as one JSON array.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
