// Package exempt poses as a package outside the concurrent set: the
// analyzer does not apply there, even to sync/atomic function calls.
package exempt

import "sync/atomic"

type gauge struct {
	v int64
}

func (g *gauge) inc() {
	atomic.AddInt64(&g.v, 1)
}
