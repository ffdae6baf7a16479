package core

import (
	"math"

	"repro/internal/cache"
)

// Per-peer protocol behavior over the struct-of-arrays store: load
// accounting and probe back-off. Each helper takes a slot index into
// the engine's peerStore (see peerstore.go for the slot discipline).

// supplierRecord tallies the quality of one neighbor's pong entries.
// It is stored by value in the pongStats maps, so tracking a supplier
// costs no extra heap object.
type supplierRecord struct {
	given int
	dead  int
}

// addLoad records an incoming probe at time now for the peer in slot p
// and reports whether the peer is overloaded (the probe must be
// refused). maxPerSec <= 0 means unlimited capacity.
func (e *Engine) addLoad(p int, now float64, maxPerSec int) bool {
	if maxPerSec <= 0 {
		return false
	}
	sec := math.Floor(now)
	if sec != e.ps.winStart[p] {
		e.ps.winStart[p] = sec
		e.ps.winCount[p] = 0
	}
	e.ps.winCount[p]++
	return int(e.ps.winCount[p]) > maxPerSec
}

// suppressedNow reports whether the peer in slot p is backing off from
// target at now.
func (e *Engine) suppressedNow(p int, target cache.PeerID, now float64) bool {
	if e.ps.rare == nil {
		return false
	}
	m := e.ps.rare[p].suppressed
	if m == nil {
		return false
	}
	until, ok := m[target]
	if !ok {
		return false
	}
	if now >= until {
		delete(m, target)
		return false
	}
	return true
}

// suppress records a back-off from target until the given time for the
// peer in slot p.
func (e *Engine) suppress(p int, target cache.PeerID, until float64) {
	r := e.ps.rareFor(p)
	if r.suppressed == nil {
		var ok bool
		if r.suppressed, ok = pop(&e.freeSuppressed); !ok {
			r.suppressed = make(map[cache.PeerID]float64, 4)
		}
	}
	r.suppressed[target] = until
}
