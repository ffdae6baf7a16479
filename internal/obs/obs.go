// Package obs is the reproduction's observability layer: a lightweight
// metrics registry (counters, gauges, fixed-bucket histograms) and a
// per-query trace-event API shared by the simulator (internal/core),
// the experiment harness (internal/experiments), and the live node
// (node, node/memnet).
//
// Design constraints, in order:
//
//   - Free when off. Every instrument is nil-receiver safe: a nil
//     *Counter, *Gauge, *Histogram, or *Registry absorbs updates as a
//     single predictable branch, so instrumented hot paths cost nothing
//     measurable when no registry is attached (BenchmarkSingleRun
//     guards this).
//   - Allocation-free when on. Updates are atomic operations on
//     pre-registered instruments; no update path allocates, takes a
//     lock, or formats a string.
//   - Deterministic exposition. WritePrometheus and Snapshot emit
//     metrics in sorted name order with fixed number formatting, so
//     fixed-seed runs produce byte-identical output (the golden-file
//     tests rely on this).
//
// Metrics never perturb what they measure: no instrument consumes
// randomness or changes control flow. The simulator holds no
// instruments at all; core.Results.Record fills its metric set from a
// finished run.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The value is a uint64
// and wraps on overflow (adding to a counter at math.MaxUint64 rolls
// over to zero) — at one increment per nanosecond that is five
// centuries away, so saturation logic is not worth a hot-path branch;
// TestCounterOverflowWraps pins the behavior.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta. Safe on a nil receiver (no-op).
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (stored as float64 bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop. Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus "le" (less or
// equal) semantics: an observation lands in the first bucket whose
// upper bound is >= the value, and values above every bound land in the
// implicit +Inf bucket. Buckets are fixed at registration so Observe is
// a bounded scan plus one atomic add — no allocation, no lock.
type Histogram struct {
	upper  []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(upper)+1; counts[len(upper)] is +Inf
	sum    Gauge           // total of observed values
}

// Observe records v. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// kind tags a registered instrument.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// instrument is one registered metric.
type instrument struct {
	name string
	help string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments. Registration (Counter, Gauge,
// Histogram) takes a lock and is idempotent per name; the returned
// instruments are updated lock-free. A nil *Registry is a valid "off"
// registry: every registration returns nil, and nil instruments absorb
// updates.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*instrument
	ordered []*instrument // insertion order; exposition sorts by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument)}
}

// Counter registers (or returns the existing) counter with the given
// name. Panics if the name is invalid or already registered as a
// different kind. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	ins := r.register(name, help, kindCounter)
	if ins.c == nil {
		ins.c = &Counter{}
	}
	return ins.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	ins := r.register(name, help, kindGauge)
	if ins.g == nil {
		ins.g = &Gauge{}
	}
	return ins.g
}

// Histogram registers (or returns the existing) histogram with the
// given bucket upper bounds (must be sorted ascending, non-empty, and
// finite; the +Inf bucket is implicit). Re-registering an existing
// histogram ignores the new buckets and returns the original.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	ins := r.register(name, help, kindHistogram)
	if ins.h == nil {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
		}
		for i, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				panic(fmt.Sprintf("obs: histogram %q bucket %v is not finite", name, b))
			}
			if i > 0 && b <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending at %v", name, b))
			}
		}
		ins.h = &Histogram{
			upper:  append([]float64(nil), buckets...),
			counts: make([]atomic.Uint64, len(buckets)+1),
		}
	}
	return ins.h
}

// register finds or creates the named instrument; callers hold no lock.
func (r *Registry) register(name, help string, k kind) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.byName[name]; ok {
		if ins.kind != k {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s",
				name, ins.kind, k))
		}
		return ins
	}
	ins := &instrument{name: name, help: help, kind: k}
	r.byName[name] = ins
	r.ordered = append(r.ordered, ins)
	return ins
}

// sorted returns the instruments in name order (a copy; callers need
// no lock to iterate).
func (r *Registry) sorted() []*instrument {
	r.mu.Lock()
	out := append([]*instrument(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
