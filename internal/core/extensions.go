package core

import "repro/internal/cache"

// This file implements the paper's future-work proposals as opt-in
// extensions: adaptive probe parallelism (Section 6.2), adaptive ping
// intervals (Section 6.1), selfish peers and probe payments
// (Section 3.3), and pong-poisoning detection (Section 6.4). Every
// extension is inert unless enabled in Params, so the baseline
// protocol is bit-identical to the paper's. Helpers take slot indices
// into the engine's peerStore (see peerstore.go).

// queryParallelism returns the per-round probe fan-out a querying peer
// uses. A selfish peer ignores the protocol's serial discipline unless
// probe payments make every probe cost something.
func (e *Engine) queryParallelism(origin int) int {
	if e.ps.selfish[origin] && !e.p.ProbePayments {
		return e.p.SelfishParallelProbes
	}
	return e.p.ParallelProbes
}

// maybeGrowParallelism doubles a query's fan-out when it has gone
// AdaptiveParallelWindow seconds without a new result.
func (e *Engine) maybeGrowParallelism(q *query) {
	if !e.p.AdaptiveParallel {
		return
	}
	if e.now-q.lastProgress < e.p.AdaptiveParallelWindow {
		return
	}
	q.k *= 2
	if q.k > e.p.MaxParallelProbes {
		q.k = e.p.MaxParallelProbes
	}
	q.lastProgress = e.now
}

// recordPingOutcome feeds the adaptive-ping controller: after every
// few pings, a peer whose probes mostly hit dead addresses halves its
// interval, and one that saw no dead addresses at all relaxes it. The
// short window matters: peers live for minutes, so the controller must
// converge within a handful of pings to help at all.
func (e *Engine) recordPingOutcome(p int, dead bool) {
	if !e.p.AdaptivePing {
		return
	}
	e.ps.pingsInWindow[p]++
	if dead {
		e.ps.deadInWindow[p]++
	}
	const window = 5
	if e.ps.pingsInWindow[p] < window {
		return
	}
	deadFrac := float64(e.ps.deadInWindow[p]) / float64(e.ps.pingsInWindow[p])
	e.ps.pingsInWindow[p], e.ps.deadInWindow[p] = 0, 0
	switch {
	case deadFrac > 1-e.p.AdaptivePingLowLive:
		e.ps.pingInterval[p] /= 2
		if e.ps.pingInterval[p] < e.p.AdaptivePingMin {
			e.ps.pingInterval[p] = e.p.AdaptivePingMin
		}
	case deadFrac < 1-e.p.AdaptivePingHighLive:
		e.ps.pingInterval[p] *= 1.25
		if e.ps.pingInterval[p] > e.p.AdaptivePingMax {
			e.ps.pingInterval[p] = e.p.AdaptivePingMax
		}
	}
}

// pongSourceBlocked reports whether the peer in slot p has blacklisted
// source's pongs.
func (e *Engine) pongSourceBlocked(p int, source cache.PeerID) bool {
	if e.ps.rare == nil {
		return false
	}
	bl := e.ps.rare[p].blacklist
	return bl != nil && bl[source]
}

// recordSupplied notes that source handed the peer in slot receiver a
// pointer to addr.
func (e *Engine) recordSupplied(receiver int, source, addr cache.PeerID) {
	if !e.p.PoisonDetection {
		return
	}
	r := e.ps.rareFor(receiver)
	if r.provenance == nil {
		e.allocPoisonState(r)
	}
	r.provenance[addr] = source
	rec := r.pongStats[source]
	rec.given++
	r.pongStats[source] = rec
}

// allocPoisonState lazily equips a peer with its poison-detection maps,
// taking the cleared maps dead peers donated before making any.
func (e *Engine) allocPoisonState(r *rareState) {
	var ok bool
	if r.provenance, ok = pop(&e.freeProvenance); !ok {
		r.provenance = make(map[cache.PeerID]cache.PeerID, 64)
	}
	if r.pongStats, ok = pop(&e.freePongStats); !ok {
		r.pongStats = make(map[cache.PeerID]supplierRecord, 16)
	}
	if r.blacklist, ok = pop(&e.freeBlacklist); !ok {
		r.blacklist = make(map[cache.PeerID]bool, 4)
	}
}

// blameDeadAddress charges the supplier of a dead address and convicts
// persistently poisonous suppliers: they are blacklisted, evicted, and
// their future pongs ignored.
func (e *Engine) blameDeadAddress(victim int, deadAddr cache.PeerID) {
	if !e.p.PoisonDetection {
		return
	}
	if e.ps.rare == nil {
		return
	}
	// A victim nobody supplied has nil maps: the lookup misses.
	r := &e.ps.rare[victim]
	source, ok := r.provenance[deadAddr]
	if !ok {
		return
	}
	delete(r.provenance, deadAddr)
	rec, ok := r.pongStats[source]
	if !ok {
		return
	}
	rec.dead++
	r.pongStats[source] = rec
	if r.blacklist[source] {
		return
	}
	if rec.given >= e.p.PoisonMinSamples &&
		float64(rec.dead)/float64(rec.given) >= e.p.PoisonThreshold {
		r.blacklist[source] = true
		e.ps.link[victim].Remove(source)
		e.res.BlacklistEvents++
	}
}
