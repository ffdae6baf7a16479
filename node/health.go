package node

import (
	"time"

	"repro/internal/cache"
)

// breakerState is the client-path circuit breaker's state for one peer.
type breakerState uint8

const (
	// brClosed: healthy; probes flow normally.
	brClosed breakerState = iota
	// brOpen: tripped by consecutive timeouts; the peer is suppressed
	// from probe selection until the cooldown elapses.
	brOpen
	// brHalfOpen: cooldown elapsed; the next probe is a trial. Success
	// closes the breaker, another timeout evicts the peer.
	brHalfOpen
)

// peerState is everything the node knows about one peer's health:
// the Busy-demotion streak and suppression deadline, and the circuit
// breaker driven by consecutive probe timeouts. One struct per peer so
// a single component owns peer health (and a single prune pass keeps
// the map bounded by the link cache).
type peerState struct {
	busyStreak int
	busyUntil  time.Time

	timeouts int
	state    breakerState
	openedAt time.Time
}

// busyEvictAt is the consecutive-Busy count that evicts a demoted peer.
const busyEvictAt = 3

// peerHealth tracks per-peer demotion and breaker state. All methods
// must be called with the node mutex held.
type peerHealth struct {
	busyBackoff time.Duration

	breakerThreshold int // consecutive timeouts to trip; 0 disables
	breakerCooldown  time.Duration

	m       map[cache.PeerID]*peerState
	openCnt int // peers currently brOpen or brHalfOpen (for the gauge)
}

func newPeerHealth(cfg Config) *peerHealth {
	return &peerHealth{
		busyBackoff:      cfg.BusyBackoff,
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cfg.BreakerCooldown,
		m:                make(map[cache.PeerID]*peerState),
	}
}

// get returns addr's state, creating it on first use.
func (h *peerHealth) get(id cache.PeerID) *peerState {
	st, ok := h.m[id]
	if !ok {
		st = &peerState{}
		h.m[id] = st
	}
	return st
}

// suppressed reports whether a peer should sit out probe selection:
// demoted by Busy backoff, or behind an open breaker. An open breaker
// whose cooldown has elapsed transitions to half-open and stops
// suppressing (the next probe is the trial).
func (h *peerHealth) suppressed(id cache.PeerID, now time.Time) bool {
	st, ok := h.m[id]
	if !ok {
		return false
	}
	if now.Before(st.busyUntil) {
		return true
	}
	st.busyUntil = time.Time{}
	if st.state == brOpen {
		if now.Before(st.openedAt.Add(h.breakerCooldown)) {
			return true
		}
		st.state = brHalfOpen
	}
	return false
}

// onTimeout records that every transmission of a probe to id went
// unanswered, and reports whether the peer should be evicted. With the
// breaker disabled (threshold 0) that is always true — the protocol's
// evict-on-death default. With it enabled, the peer survives until the
// timeout streak trips the breaker open; after the cooldown, one
// half-open trial failure evicts it.
func (h *peerHealth) onTimeout(id cache.PeerID, now time.Time) (evict, opened bool) {
	if h.breakerThreshold <= 0 {
		h.forget(id)
		return true, false
	}
	st := h.get(id)
	if st.state == brHalfOpen {
		// The trial probe failed: give up on the peer.
		h.forget(id)
		return true, false
	}
	st.timeouts++
	if st.state == brClosed && st.timeouts >= h.breakerThreshold {
		st.state = brOpen
		st.openedAt = now
		h.openCnt++
		return false, true
	}
	return false, false
}

// onBusy records a Busy refusal from id and reports whether the peer
// should be evicted. With BusyBackoff disabled the refusal evicts (the
// paper's no-backoff default); otherwise the peer is suppressed for
// busyBackoff, then twice that, and evicted at its busyEvictAt-th
// consecutive refusal. The second return is true when the refusal was
// absorbed by demotion (for the BusyBackoffs counter).
func (h *peerHealth) onBusy(id cache.PeerID, now time.Time) (evict, demoted bool) {
	if h.busyBackoff <= 0 {
		h.forget(id)
		return true, false
	}
	st := h.get(id)
	st.busyStreak++
	// A Busy is still a reply: the peer is alive, so the timeout
	// streak resets even as the busy streak grows.
	st.timeouts = 0
	if st.busyStreak >= busyEvictAt {
		h.forget(id)
		return true, false
	}
	st.busyUntil = now.Add(h.busyBackoff << (st.busyStreak - 1))
	return false, true
}

// onSuccess clears all health state for a peer that answered: the busy
// streak, the timeout streak, and any open breaker.
func (h *peerHealth) onSuccess(id cache.PeerID) { h.forget(id) }

// forget drops all state for an evicted peer.
func (h *peerHealth) forget(id cache.PeerID) {
	if st, ok := h.m[id]; ok {
		if st.state != brClosed {
			h.openCnt--
		}
		delete(h.m, id)
	}
}

// pruneTo drops state for peers no longer in the link cache, so the
// health map cannot grow without bound under churn: policy-driven
// replacement evicts peers without telling the health layer, and this
// sweep (run after cache inserts) reclaims them.
func (h *peerHealth) pruneTo(link *cache.LinkCache) {
	for id, st := range h.m {
		if !link.Has(id) {
			if st.state != brClosed {
				h.openCnt--
			}
			delete(h.m, id)
		}
	}
}

// appendIDs appends the IDs of the tracked peers to dst.
func (h *peerHealth) appendIDs(dst []cache.PeerID) []cache.PeerID {
	for id := range h.m {
		dst = append(dst, id)
	}
	return dst
}

// open returns the number of peers behind a non-closed breaker.
func (h *peerHealth) open() int { return h.openCnt }

// len returns the number of tracked peers (test hook).
func (h *peerHealth) len() int { return len(h.m) }
