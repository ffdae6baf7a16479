package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Start and End
// are nanoseconds since the tracer's epoch; Parent is the ID of the
// span that caused this one (0 for a root) and Req groups the spans of
// one request (one sweep point, one Query call, one raw probe).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans one run keeps: node-flashcrowd answers a few
// hundred thousand probes a second, and the span file is for reading,
// not for replaying the run. Spans past the cap are counted, not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the tracing-off state: every method is a no-op, so workloads call it
// unconditionally and the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	next    int64
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span and assigns its ID, so children started before it
// ends can name it as their parent.
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// id is the span's identifier (0 when tracing is off).
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.keep(o.s)
}

// record adds a span whose endpoints the caller already measured (the
// node workloads time every operation anyway for their latencies).
func (t *tracer) record(name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.keep(span{Req: req, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// keep stores a finished span, giving it an ID if start did not.
func (t *tracer) keep(s span) {
	t.mu.Lock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot returns the kept spans and how many were dropped.
func (t *tracer) snapshot() ([]span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// spanAgg sums the spans sharing one name.
type spanAgg struct {
	Count int64
	// TotalNS is the summed duration; SelfNS is the part not covered
	// by child spans.
	TotalNS, SelfNS int64
}

// meanMS is the mean span duration in milliseconds.
func (a spanAgg) meanMS() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.TotalNS) / float64(a.Count) / 1e6
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of that interval its direct children cover;
// overlapping children (two workers under one RunPoints) are counted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[string]spanAgg {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanAgg)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		dur := s.End - s.Start
		a.TotalNS += dur
		a.SelfNS += dur - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = a
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := lo
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// writeSpans writes the spans as JSON Lines, oldest first, followed by
// one {"dropped": n} line when the cap was hit.
func writeSpans(path string, spans []span, dropped int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
