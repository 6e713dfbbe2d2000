package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions (spans inside the program are a later change).
// Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`   // "<layer>.<operation>"
	Inj    int           `json:"inj"`    // injection / scenario the span belongs to, -1 = none
	N      int           `json:"n"`      // calls the span covers (tiny calls are timed in batches)
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the module the span's name is filed under.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workload code calls it
// unconditionally and the end-to-end numbers pay nothing for it.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, inj int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Inj: inj, N: 1, Start: now, End: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) { t.endN(id, 1) }

// endN closes a span that covered n calls. Calls that take tens of
// nanoseconds are timed a batch at a time: a span per call would measure the
// clock, not the call.
func (t *tracer) endN(id, n int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (for example a
// hop reconstructed from the program's own stitched trace files).
func (t *tracer) add(name string, parent, inj int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Inj: inj, N: 1, Start: start, End: end})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// since converts a wall-clock instant to a tracer offset.
func (t *tracer) since(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// count is how many spans have been opened; span IDs run from 1 to count.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its direct children cover (overlapping children are merged
// first, and clipped to the parent, so concurrent children are not counted
// twice and a child that outlives its parent cannot drive self time
// negative).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanTotal sums the spans filed under one key.
type spanTotal struct {
	Spans int           // spans recorded
	Calls int           // calls they covered
	Total time.Duration // their durations
	Self  time.Duration // their self time
}

// perCallNS is the mean time per covered call, in nanoseconds.
func (t spanTotal) perCallNS() float64 {
	if t.Calls == 0 {
		return 0
	}
	return float64(t.Total) / float64(t.Calls)
}

// totalsBy sums spans under key(span): by name for per-call costs, by layer
// for shares.
func totalsBy(spans []span, key func(span) string) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		k := key(s)
		t := out[k]
		t.Spans++
		t.Calls += s.N
		t.Total += s.End - s.Start
		t.Self += self[s.ID]
		out[k] = t
	}
	return out
}

// writeFile dumps the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
