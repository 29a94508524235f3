package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run dumps them. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timer is an open span.
type timer struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  int64
}

// begin opens a span under parent (0 for a root) belonging to op.
func (t *tracer) begin(name string, parent, op int64) timer {
	if t == nil {
		return timer{}
	}
	return timer{t: t, id: t.nextID.Add(1), parent: parent, op: op, name: name,
		start: int64(time.Since(t.epoch))}
}

// end closes the span and records it.
func (tm timer) end() {
	if tm.t == nil {
		return
	}
	s := span{ID: tm.id, Parent: tm.parent, Op: tm.op, Name: tm.name,
		Start: tm.start, End: int64(time.Since(tm.t.epoch))}
	tm.t.mu.Lock()
	tm.t.spans = append(tm.t.spans, s)
	tm.t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes the spans as JSON to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	//hdlint:allow atomicwrite a span dump is scratch output for a person or a script to read as plain JSON
	return os.WriteFile(path, data, 0o644)
}

// layerTime is the time a layer's spans took: Total is the sum of the
// spans' durations, Self the part of it no child span covers.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the union of its children's intervals, each clipped to the
// span, so overlapping children (parallel calls) are not subtracted
// twice and a child running past its parent's end is not subtracted
// beyond it.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of kids' intervals within
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}
