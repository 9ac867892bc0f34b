package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Op; Parent is the index of the enclosing span (-1 for a root).
// Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans from the benchmark's own files, around the calls
// into each layer. It is single-threaded by construction: the traced
// replay runs scenarios one after another and every layer call (including
// the ones executed on a shard.Actor's goroutine while the caller blocks
// in Do) is ordered by channel synchronisation. A tracer that is off (or
// nil, as in the plain oracle) records nothing; replaying through it is
// the baseline the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil || !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.parent(), Op: t.op})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// leaf records a completed child of the innermost open span from a hook
// that only reports how long the work took once it is over (the graph
// package's APSP observers).
func (t *tracer) leaf(name string, elapsed time.Duration) {
	if t == nil || !t.on {
		return
	}
	end := t.now()
	t.spans = append(t.spans, span{Name: name, Start: end - int64(elapsed), End: end, Parent: t.parent(), Op: t.op})
}

// nextOp starts a new request: spans recorded from here on share its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// spanSelf returns each span's self time: its duration minus the part of
// its interval its children cover. Children are clipped to the parent and
// overlapping children are merged, so time is never subtracted twice.
func spanSelf(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTimes sums duration and self time per span name.
func spanTimes(spans []span) (total, self map[string]int64) {
	total, self = make(map[string]int64), make(map[string]int64)
	for i, own := range spanSelf(spans) {
		total[spans[i].Name] += spans[i].End - spans[i].Start
		self[spans[i].Name] += own
	}
	return total, self
}

// writeTrace dumps the spans kept in memory during the run.
func writeTrace(path, workload string, spans []span) error {
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
