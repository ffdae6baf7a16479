package node

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/wire"
)

// pingLoop maintains the link cache: every PingInterval it pings one
// entry chosen by the PingProbe policy, evicting it on timeout and
// absorbing the pong otherwise.
func (n *Node) pingLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.PingInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.closing:
			return
		case <-ticker.C:
			n.pingOnce()
		}
	}
}

// pingOnce performs one maintenance ping, if the cache has a
// non-suppressed entry.
func (n *Node) pingOnce() {
	n.mu.Lock()
	entries := n.link.Entries()
	i := policy.Pick(n.rng, n.cfg.PingProbe, entries)
	if i < 0 || n.suppressedLocked(entries[i].Addr) {
		n.mu.Unlock() // nothing to ping, or demoted this round: try again next tick
		return
	}
	id := entries[i].Addr
	target := n.addrs[id]
	n.mu.Unlock()

	pong, outcome := n.ping(context.Background(), target)
	if outcome == txTimeout {
		// Every attempt unanswered: breaker or eviction.
		n.peerTimedOut(id)
	}
	if pong == nil {
		return
	}
	n.mu.Lock()
	ts := n.now()
	n.link.Touch(id, ts)
	n.health.onSuccess(id)
	n.absorbPong(pong.Entries, ts, nil)
	n.mu.Unlock()
}

// ping sends target one ping, with the retry schedule of every probe,
// and returns its pong: nil if the reply was something else or none
// came.
func (n *Node) ping(ctx context.Context, target netip.AddrPort) (*wire.Pong, txOutcome) {
	n.met.PingsSent.Inc()
	req := &wire.Ping{MsgID: n.msgID.Add(1), NumFiles: uint32(len(n.cfg.Files))}
	reply, outcome := n.transact(ctx, req, target, nil, new(attemptTimer))
	pong, ok := reply.(*wire.Pong)
	if ok {
		n.met.PongsReceived.Inc()
	}
	return pong, outcome
}

// absorbPong runs cache replacement over received entries, stamped ts,
// first offering each to qc, the cache of the query the pong answered,
// if there is one; callers hold n.mu.
func (n *Node) absorbPong(entries []wire.PongEntry, ts float64, qc *policy.QueryCache) {
	for _, pe := range entries {
		if !pe.Addr.IsValid() {
			continue
		}
		id := n.idFor(pe.Addr)
		if id == 0 || id == n.selfID {
			continue
		}
		e := cache.Entry{
			Addr:     id,
			TS:       ts,
			NumFiles: int32(clampFiles(pe.NumFiles)),
			NumRes:   int32(pe.NumRes),
			Direct:   false,
		}
		if qc != nil {
			qc.Add(e)
		}
		policy.Insert(n.rng, n.cfg.CacheReplacement, n.link, e)
	}
	n.health.pruneTo(n.link)
	n.syncBreakerGauge()
	n.syncCacheGauge()
}

// txOutcome classifies one transact run.
type txOutcome int

const (
	// txReply: a correlated reply arrived.
	txReply txOutcome = iota
	// txTimeout: every attempt timed out or failed to send; the target
	// is presumed dead.
	txTimeout
	// txAborted: the context was cancelled or the node closed.
	txAborted
)

// attemptTimer is one reply deadline re-armed for attempt after attempt
// (the zero value is ready), instead of a time.NewTimer each.
//
// go.mod says go 1.22, so timer channels are buffered: a timer that
// fired while its attempt was taking a reply out of the other channel
// leaves its tick behind, and the next attempt would time out on
// arrival. disarm therefore empties the channel whenever Stop reports
// that the timer had already fired.
type attemptTimer struct{ t *time.Timer }

// arm starts the deadline d from now and returns its channel. The
// timer must be disarmed (or never armed) when arm is called.
func (a *attemptTimer) arm(d time.Duration) <-chan time.Time {
	if a.t == nil {
		a.t = time.NewTimer(d)
	} else {
		a.t.Reset(d)
	}
	return a.t.C
}

// disarm stops the deadline and discards its tick if it had fired,
// whether or not the caller received it.
func (a *attemptTimer) disarm() {
	if !a.t.Stop() {
		select {
		case <-a.t.C:
		default:
		}
	}
}

// transact sends req to target up to MaxProbeAttempts times, waiting
// one attemptTimeout per transmission with exponential backoff between
// attempts. It returns the first correlated reply, or nil with the
// failure classification. Successful first-transmission RTTs feed the
// adaptive-timeout estimator (Karn's rule: retransmitted exchanges are
// ambiguous and never sampled). qs, when non-nil, accrues per-query
// retry counts. timer is the caller's, disarmed on entry and on return.
func (n *Node) transact(ctx context.Context, req wire.Message, target netip.AddrPort, qs *QueryStats, timer *attemptTimer) (wire.Message, txOutcome) {
	replies := n.await(req.ID())
	defer n.forget(req.ID())

	backoff := n.cfg.RetryBackoff
	for attempt := 1; ; attempt++ {
		sentAt := time.Now()
		sendErr := n.send(req, target)
		if sendErr != nil {
			n.logf("send %s to %v: %v", req.Type(), target, sendErr)
		} else {
			timeout := timer.arm(n.attemptTimeout())
			select {
			case <-ctx.Done():
				timer.disarm()
				return nil, txAborted
			case <-n.closing:
				timer.disarm()
				return nil, txAborted
			case reply := <-replies:
				timer.disarm()
				if attempt == 1 {
					n.observeRTT(time.Since(sentAt))
				}
				return reply, txReply
			case <-timeout:
			}
		}
		if attempt >= n.cfg.MaxProbeAttempts {
			return nil, txTimeout
		}
		n.met.Retries.Inc()
		if qs != nil {
			qs.Retries++
		}
		// The timer is idle here: its tick was just received, or it was
		// not armed for a send that failed.
		pause := timer.arm(backoff)
		select {
		case <-ctx.Done():
			timer.disarm()
			return nil, txAborted
		case <-n.closing:
			timer.disarm()
			return nil, txAborted
		case <-pause:
		}
		backoff = min(2*backoff, n.cfg.RetryBackoffMax)
	}
}

// attemptTimeout returns the per-transmission reply deadline: the
// configured ProbeTimeout, or with AdaptiveTimeout an RTO from the RTT
// EWMA (srtt + 4*rttvar) clamped to [ProbeTimeout/8, 2*ProbeTimeout].
func (n *Node) attemptTimeout() time.Duration {
	if !n.cfg.AdaptiveTimeout {
		return n.cfg.ProbeTimeout
	}
	n.mu.Lock()
	srtt, rttvar := n.srtt, n.rttvar
	n.mu.Unlock()
	if srtt == 0 {
		return n.cfg.ProbeTimeout
	}
	rto := time.Duration((srtt + 4*rttvar) * float64(time.Second))
	if lo := n.cfg.ProbeTimeout / 8; rto < lo {
		return lo
	}
	if hi := 2 * n.cfg.ProbeTimeout; rto > hi {
		return hi
	}
	return rto
}

// observeRTT feeds one unambiguous RTT sample into the Jacobson/Karels
// estimator behind adaptive timeouts, and into the RTT histogram.
func (n *Node) observeRTT(rtt time.Duration) {
	s := rtt.Seconds()
	n.met.RTT.Observe(s)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srtt == 0 {
		n.srtt, n.rttvar = s, s/2
		return
	}
	n.rttvar = 0.75*n.rttvar + 0.25*math.Abs(n.srtt-s)
	n.srtt = 0.875*n.srtt + 0.125*s
}

// peerTimedOut handles a peer whose probe exhausted every attempt:
// with the breaker disabled the peer is evicted outright (the
// protocol's presumed-dead default); with it enabled the timeout feeds
// the breaker, which suppresses the peer after BreakerThreshold
// consecutive timeouts and evicts only when the half-open trial fails.
func (n *Node) peerTimedOut(id cache.PeerID) {
	n.mu.Lock()
	evict, opened := n.health.onTimeout(id, time.Now())
	if evict {
		n.link.Remove(id)
		n.syncCacheGauge()
	}
	n.syncBreakerGauge()
	n.mu.Unlock()
	if opened {
		n.met.BreakerOpens.Inc()
	}
	if evict {
		n.met.DeadEvictions.Inc()
	}
}

// suppressedLocked reports whether a peer should sit out probe
// selection (Busy demotion or an open breaker); callers hold n.mu. With
// no health state held, which is every configuration without BusyBackoff
// or BreakerThreshold, no peer is, and the clock is not read.
func (n *Node) suppressedLocked(id cache.PeerID) bool {
	if n.health.len() == 0 {
		return false
	}
	return n.health.suppressed(id, time.Now())
}

// demoteBusy applies Busy-aware demotion: with BusyBackoff disabled
// the overloaded peer is dropped from the cache (the simulator's
// no-backoff default); otherwise it is suppressed with exponential
// backoff and evicted only after BusyEvictAfter consecutive refusals.
func (n *Node) demoteBusy(id cache.PeerID) {
	n.mu.Lock()
	evict, demoted := n.health.onBusy(id, time.Now())
	if evict {
		n.link.Remove(id)
		n.syncCacheGauge()
	}
	n.syncBreakerGauge()
	n.mu.Unlock()
	if demoted {
		n.met.BusyBackoffs.Inc()
	}
}

// queryScratch is the working set of one Query — the query's record,
// the reply deadline and the request being sent — kept between queries
// so that a query allocates none of it.
type queryScratch struct {
	qc    policy.QueryCache
	timer attemptTimer
	req   wire.Query
}

// maxScratches bounds a node's idle scratches: enough for a few callers
// querying at once, the rest allocate and are collected.
const maxScratches = 4

// getScratch returns a scratch whose query record wants desired
// results, with no probe cap, and holds the link cache snapshot (the
// node itself excluded); callers hold n.mu.
func (n *Node) getScratch(desired int) *queryScratch {
	var s *queryScratch
	if last := len(n.scratches) - 1; last >= 0 {
		s, n.scratches = n.scratches[last], n.scratches[:last]
	} else {
		s = new(queryScratch)
	}
	s.qc.Reset(n.cfg.QueryProbe, n.rng, n.selfID)
	s.qc.Limit(desired, 0)
	for _, e := range n.link.Entries() {
		s.qc.Add(e)
	}
	return s
}

// putScratch hands a finished query's scratch back, without the storage
// of an exhaustive query over a large network.
func (n *Node) putScratch(s *queryScratch) {
	s.qc.Shed()
	n.mu.Lock()
	if len(n.scratches) < maxScratches {
		n.scratches = append(n.scratches, s)
	}
	n.mu.Unlock()
}

// Query runs a GUESS search: it serially probes peers from the link
// cache and the growing query cache, under the QueryProbe policy,
// until `desired` results arrive, the candidates are exhausted, or ctx
// is done. It returns the hits collected so far in every case; the
// error is non-nil only for invalid arguments or a closed node.
func (n *Node) Query(ctx context.Context, keyword string, desired int) ([]Hit, QueryStats, error) {
	var stats QueryStats
	if keyword == "" || len(keyword) > wire.MaxNameLen {
		return nil, stats, fmt.Errorf("node: invalid keyword %q", keyword)
	}
	if desired < 1 || desired > 255 {
		return nil, stats, fmt.Errorf("node: desired results %d outside [1,255]", desired)
	}
	if n.Draining() {
		return nil, stats, errClosed
	}

	n.mu.Lock()
	s := n.getScratch(desired)
	n.mu.Unlock()
	defer n.putScratch(s)

	var hits []Hit
	for n.querying(ctx, &s.qc) {
		n.mu.Lock()
		// Busy-demoted peers sit out the query instead of wasting a
		// probe on another refusal.
		entry, ok := s.qc.Next(n.suppressedLocked)
		target := n.addrs[entry.Addr]
		n.mu.Unlock()
		if !ok {
			break // exhausted
		}
		hits = n.probe(ctx, s, target, entry.Addr, keyword, hits, desired-len(hits), &stats)
	}
	c := s.qc.Counts()
	stats.Probes, stats.Good, stats.Dead, stats.Refused = c.Probes, c.Good, c.Dead, c.Refused
	return hits, stats, nil
}

// querying reports whether a query should send another probe: its
// record is not done, and neither ctx nor the node is.
func (n *Node) querying(ctx context.Context, qc *policy.QueryCache) bool {
	_, done := qc.Done()
	return !done && ctx.Err() == nil && !n.Draining()
}

// probe runs one query probe (with retries), records its outcome in the
// query's record and returns hits with the probe's results appended.
func (n *Node) probe(ctx context.Context, s *queryScratch, target netip.AddrPort, id cache.PeerID,
	keyword string, hits []Hit, want int, stats *QueryStats) []Hit {

	s.req = wire.Query{
		MsgID:    n.msgID.Add(1),
		Desired:  uint8(want),
		NumFiles: uint32(len(n.cfg.Files)),
		Keyword:  keyword,
	}
	reply, outcome := n.transact(ctx, &s.req, target, stats, &s.timer)
	switch outcome {
	case txAborted:
		return hits
	case txTimeout:
		// Every attempt unanswered: presumed dead for this query;
		// eviction vs breaker is the health layer's call.
		s.qc.Dead()
		n.peerTimedOut(id)
		return hits
	}

	switch m := reply.(type) {
	case *wire.Busy:
		s.qc.Refused()
		n.demoteBusy(id)
	case *wire.QueryHit:
		s.qc.Good(len(m.Results))
		n.mu.Lock()
		ts := n.now()
		n.link.Touch(id, ts)
		n.link.SetNumRes(id, int32(len(m.Results)))
		n.health.onSuccess(id)
		// Grow the query cache and the link cache from the
		// piggy-backed pong.
		n.absorbPong(m.Pong, ts, &s.qc)
		n.mu.Unlock()
		for _, name := range m.Results {
			hits = append(hits, Hit{From: target, Name: name})
		}
	}
	return hits
}

// PingPeer sends one explicit ping (bootstrap helper, with the same
// retry schedule as other probes) and reports whether the peer
// answered.
func (n *Node) PingPeer(ctx context.Context, target netip.AddrPort) (bool, error) {
	if n.Draining() {
		return false, errClosed
	}
	pong, outcome := n.ping(ctx, target)
	if outcome == txAborted {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return false, errClosed
	}
	if pong == nil {
		return false, nil
	}
	n.mu.Lock()
	id := n.idFor(target)
	ts := n.now()
	n.link.Touch(id, ts)
	n.health.onSuccess(id)
	n.absorbPong(pong.Entries, ts, nil)
	n.mu.Unlock()
	return true, nil
}
