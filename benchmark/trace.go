package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer's public
// function. Spans live in memory until the run ends; nothing inside the
// program under test is traced.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     spanRef       // the span that made the call; noSpan for a root
	unit       int           // the op (iteration, sweep, ladder) the span belongs to
}

// spanRef names a span by lane and index within the lane.
type spanRef struct{ lane, idx int }

var noSpan = spanRef{-1, -1}

// tracer owns every lane of one run. A lane is one goroutine's sequence of
// spans: spans on a lane nest strictly, so a lane's self times never sum to
// more than its wall time.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane opens a new lane whose root spans are children of parent.
func (t *tracer) lane(parent spanRef) *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: len(t.lanes), root: parent}
	t.lanes = append(t.lanes, l)
	return l
}

// lane records spans for one goroutine. A nil *lane records nothing, so
// code shared by the traced and untraced paths costs one nil check per
// boundary when tracing is off.
type lane struct {
	t     *tracer
	id    int
	root  spanRef
	unit  int
	spans []span
	stack []int
}

// setUnit tags the spans begun from now on with op index u.
func (l *lane) setUnit(u int) {
	if l != nil {
		l.unit = u
	}
}

// begin opens a span nested in the innermost open span of the lane.
func (l *lane) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := l.root
	if n := len(l.stack); n > 0 {
		parent = spanRef{l.id, l.stack[n-1]}
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.t.t0), parent: parent, unit: l.unit})
	i := len(l.spans) - 1
	l.stack = append(l.stack, i)
	return i
}

// end closes span i and any span still open inside it (left open by an
// error return).
func (l *lane) end(i int) {
	if l == nil {
		return
	}
	now := time.Since(l.t.t0)
	for n := len(l.stack); n > 0; n-- {
		top := l.stack[n-1]
		l.stack = l.stack[:n-1]
		l.spans[top].end = now
		if top == i {
			return
		}
	}
}

// ref returns a reference to span i of this lane.
func (l *lane) ref(i int) spanRef {
	if l == nil {
		return noSpan
	}
	return spanRef{l.id, i}
}

// spanStat is one span with its self time: its duration minus the part of
// its interval its children cover.
type spanStat struct {
	span
	lane int
	self time.Duration
}

// stats flattens every lane and computes self times.
func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	index := make(map[spanRef]int)
	var out []spanStat
	for _, l := range t.lanes {
		for i, s := range l.spans {
			index[spanRef{l.id, i}] = len(out)
			out = append(out, spanStat{span: s, lane: l.id})
		}
	}
	children := make(map[int][][2]time.Duration)
	for _, s := range out {
		if p, ok := index[s.parent]; ok {
			children[p] = append(children[p], [2]time.Duration{s.start, s.end})
		}
	}
	for i := range out {
		out[i].self = out[i].end - out[i].start - covered(out[i].start, out[i].end, children[i])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
// Children on other lanes may overlap one another, so this is a union, not
// a sum.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (one thread per
// lane), loadable in chrome://tracing or Perfetto.
func writeChrome(path string, spans []spanStat) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"unit": s.unit, "self_us": float64(s.self.Nanoseconds()) / 1e3,
				"parent_lane": s.parent.lane, "parent_idx": s.parent.idx,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
