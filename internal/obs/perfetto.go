package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace-event ("Perfetto legacy JSON") export. The format is
// the JSON object form: {"traceEvents":[...],"displayTimeUnit":"ms"}.
// Each track becomes one thread (tid = registration order, named via a
// thread_name metadata event and ordered via thread_sort_index), spans
// become complete events (ph "X", microsecond ts/dur), counters become
// ph "C" samples, instants ph "i". chrome://tracing and ui.perfetto.dev
// both open the output directly.

// TraceEvent is one entry of the traceEvents array — shared by the
// encoder and the decoder so round-trip tests and the ci smoke
// exercise the same struct.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds (ph "X")
	Cat  string         `json:"cat,omitempty"` // category (async events)
	ID   int64          `json:"id,omitempty"`  // correlation id (async events)
	S    string         `json:"s,omitempty"`   // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the decoded JSON object form of a trace file.
type TraceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
	// EpochWallNanos is the tracer's epoch (the zero of every ts in
	// this file) as wall-clock unix nanoseconds, decimal-encoded as a
	// string because the value exceeds what JSON numbers carry
	// exactly. It is the coarse clock-alignment signal MergeTraces
	// starts from; empty in hand-written fixtures and pre-PR-10 files.
	EpochWallNanos string `json:"epochWallNanos,omitempty"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteFile writes the tracer's current contents to path (see
// WriteJSON) — one trace file per process, joined later by tracecheck
// -merge.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON streams the tracer's current contents as Chrome trace JSON.
// It may run while writers are still recording: only published events
// are exported. Event order within the array is arbitrary (viewers
// sort by ts).
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	if _, err := fmt.Fprintf(w, `{"displayTimeUnit":"ms","epochWallNanos":"%d","traceEvents":[`, t.epochWall); err != nil {
		return err
	}
	first := true
	emit := func(ev TraceEvent) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	for tid, tr := range t.Tracks() {
		meta := TraceEvent{
			Name: "thread_name", Ph: "M", Tid: tid,
			Args: map[string]any{"name": tr.name},
		}
		if err := emit(meta); err != nil {
			return err
		}
		sortMeta := TraceEvent{
			Name: "thread_sort_index", Ph: "M", Tid: tid,
			Args: map[string]any{"sort_index": tr.ord},
		}
		if err := emit(sortMeta); err != nil {
			return err
		}
		for _, e := range tr.snapshot() {
			var ev TraceEvent
			switch e.Kind {
			case KindSpan:
				ev = TraceEvent{Name: e.Name, Ph: "X", Tid: tid, Ts: usec(e.TS), Dur: usec(e.Dur)}
				if e.Arg != 0 {
					ev.Args = map[string]any{"arg": e.Arg}
				}
			case KindCounter:
				ev = TraceEvent{Name: e.Name, Ph: "C", Tid: tid, Ts: usec(e.TS),
					Args: map[string]any{"value": e.Arg}}
			case KindInstant:
				ev = TraceEvent{Name: e.Name, Ph: "i", Tid: tid, Ts: usec(e.TS), S: "t"}
			case KindAsync:
				// One recorded event, two emitted: nestable async
				// begin/end correlated by id, free to overlap.
				b := TraceEvent{Name: e.Name, Ph: "b", Cat: "req", Tid: tid,
					Ts: usec(e.TS), ID: e.Arg}
				if err := emit(b); err != nil {
					return err
				}
				ev = TraceEvent{Name: e.Name, Ph: "e", Cat: "req", Tid: tid,
					Ts: usec(e.TS + e.Dur), ID: e.Arg}
			case KindTraced:
				// Cross-process span: async begin/end grouped by trace
				// ID (so one trace's spans share a Perfetto sub-row)
				// with the span identity in args as fixed-width hex.
				// The end event repeats the span ID so pairs match
				// unambiguously after files are merged and re-sorted.
				args := map[string]any{
					"trace": hexID(e.Trace), "span": hexID(e.Span),
				}
				if e.Parent != 0 {
					args["parent"] = hexID(e.Parent)
				}
				b := TraceEvent{Name: e.Name, Ph: "b", Cat: "trace", Tid: tid,
					Ts: usec(e.TS), ID: int64(e.Trace), Args: args}
				if err := emit(b); err != nil {
					return err
				}
				ev = TraceEvent{Name: e.Name, Ph: "e", Cat: "trace", Tid: tid,
					Ts: usec(e.TS + e.Dur), ID: int64(e.Trace),
					Args: map[string]any{"span": hexID(e.Span)}}
			default:
				continue
			}
			if err := emit(ev); err != nil {
				return err
			}
		}
		if d := tr.Drops(); d > 0 {
			ev := TraceEvent{Name: "obs.dropped_events", Ph: "C", Tid: tid,
				Ts: usec(t.now()), Args: map[string]any{"value": d}}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// DecodeTrace parses Chrome trace JSON (the object form WriteJSON
// emits; the bare-array form is accepted too, since hand-written
// fixtures use it).
func DecodeTrace(data []byte) (*TraceDoc, error) {
	var doc TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		var events []TraceEvent
		if err2 := json.Unmarshal(data, &events); err2 != nil {
			return nil, fmt.Errorf("obs: trace is neither an object (%v) nor an array (%v)", err, err2)
		}
		doc.TraceEvents = events
	}
	return &doc, nil
}

// Validate checks structural invariants of a decoded trace: known
// phase letters, non-negative timestamps and durations, and — the
// property the timeline rendering depends on — that the "X" spans of
// each (pid, tid) track properly nest: for any two spans on one track,
// their [ts, ts+dur] intervals are either disjoint or one contains the
// other. Returns the number of span events checked.
func (d *TraceDoc) Validate() (int, error) {
	type key struct{ pid, tid int }
	spans := make(map[key][]TraceEvent)
	nspans := 0
	for i, ev := range d.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				return 0, fmt.Errorf("obs: event %d (%s): negative ts/dur", i, ev.Name)
			}
			if ev.Name == "" {
				return 0, fmt.Errorf("obs: event %d: span with empty name", i)
			}
			spans[key{ev.Pid, ev.Tid}] = append(spans[key{ev.Pid, ev.Tid}], ev)
			nspans++
		case "C", "i", "M", "B", "E", "b", "e", "n":
			if ev.Ph != "M" && ev.Ts < 0 {
				return 0, fmt.Errorf("obs: event %d (%s): negative ts", i, ev.Name)
			}
		default:
			return 0, fmt.Errorf("obs: event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	for k, evs := range spans {
		// Sort by start, longest first on ties, and sweep a stack of
		// open intervals: each span must fit inside the innermost open
		// span that has not yet ended.
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []TraceEvent
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= ev.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.Ts+ev.Dur > top.Ts+top.Dur {
					return 0, fmt.Errorf(
						"obs: track %v: span %q [%g,%g] overlaps %q [%g,%g] without nesting",
						k, ev.Name, ev.Ts, ev.Ts+ev.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, ev)
		}
	}
	return nspans, nil
}

// SpanNames returns the set of distinct "X" span names in the trace.
func (d *TraceDoc) SpanNames() map[string]int {
	out := make(map[string]int)
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" {
			out[ev.Name]++
		}
	}
	return out
}

// AsyncSpanNames returns the distinct async span names, counting each
// "b"/"e" pair once (by its begin event).
func (d *TraceDoc) AsyncSpanNames() map[string]int {
	out := make(map[string]int)
	for _, ev := range d.TraceEvents {
		if ev.Ph == "b" {
			out[ev.Name]++
		}
	}
	return out
}

// CounterNames returns the set of distinct "C" counter names.
func (d *TraceDoc) CounterNames() map[string]int {
	out := make(map[string]int)
	for _, ev := range d.TraceEvents {
		if ev.Ph == "C" {
			out[ev.Name]++
		}
	}
	return out
}
