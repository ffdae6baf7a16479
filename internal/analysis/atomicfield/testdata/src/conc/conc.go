// Package conc poses as repro/node to exercise the atomicfield
// analyzer: every sync/atomic function call is flagged, and typed
// atomics pass.
package conc

import "sync/atomic"

// Counter keeps its counters in plain words behind sync/atomic calls.
type Counter struct {
	hits  int64
	total int64
	flag  uint32
}

func (c *Counter) Inc() {
	atomic.AddInt64(&c.hits, 1) // want `atomic.AddInt64 operates on a plain word .* typed atomic`
}

func (c *Counter) Hits() int64 {
	return atomic.LoadInt64(&c.hits) // want `atomic.LoadInt64 operates on a plain word`
}

func (c *Counter) Set() bool {
	return atomic.CompareAndSwapUint32(&c.flag, 0, 1) // want `atomic.CompareAndSwapUint32 operates on a plain word`
}

// Sealed carries a reasoned suppression.
func (c *Counter) Sealed(n int64) {
	//lint:atomicfield-ok fixture demonstrating a reasoned suppression
	atomic.StoreInt64(&c.total, n)
}

// Typed uses the typed atomic wrappers, which make plain access
// impossible: their methods are the fix, not a finding.
type Typed struct {
	n    atomic.Int64
	seen atomic.Bool
	last atomic.Pointer[Counter]
}

func (t *Typed) Inc(c *Counter) int64 {
	t.seen.Store(true)
	t.last.Store(c)
	return t.n.Add(1)
}
