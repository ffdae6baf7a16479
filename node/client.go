package node

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
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
	target := n.ids.addrs[entries[i].Addr]
	n.mu.Unlock()

	pong, at, outcome := n.ping(context.Background(), target)
	n.mu.Lock()
	defer n.mu.Unlock()
	// Nothing held target's ID while the ping was in the air: a sweep
	// may have freed it and numbered another address with it. A target
	// no longer numbered is neither touched nor blamed.
	id := n.lookupID(target)
	if outcome == txTimeout {
		// Every attempt unanswered: breaker or eviction.
		if id != 0 {
			n.peerTimedOutLocked(id)
		}
		return
	}
	if pong == nil {
		return
	}
	ts := n.clock(at)
	n.link.Touch(id, ts)
	n.health.onSuccess(id)
	n.absorbPong(pong.Entries, ts, nil)
}

// pingCall is one ping on the flight path, and the blocking wrapper a
// pinging goroutine waits in.
type pingCall struct {
	f    flight
	req  wire.Ping
	done chan struct{}
	// What finish left: how the flight ended, when a reply arrived, and
	// a copy of it if it was a pong (the decoded one is the serve
	// loop's, reused for the next datagram).
	out  txOutcome
	at   time.Time
	pong *wire.Pong
}

func (c *pingCall) finish(reply wire.Message, out txOutcome, at time.Time) {
	c.out, c.at = out, at
	if p, ok := reply.(*wire.Pong); ok {
		c.pong = &wire.Pong{MsgID: p.MsgID, Entries: slices.Clone(p.Entries)}
	}
	c.done <- struct{}{}
}

// ping sends target one ping, with the retry schedule of every probe,
// and returns its pong, nil if the reply was something else or none
// came, with the time the reply arrived.
func (n *Node) ping(ctx context.Context, target netip.AddrPort) (*wire.Pong, time.Time, txOutcome) {
	n.met.PingsSent.Inc()
	c := &pingCall{
		req:  wire.Ping{MsgID: n.msgID.Add(1), NumFiles: uint32(len(n.cfg.Files))},
		done: make(chan struct{}, 1),
	}
	c.f = flight{n: n, owner: c, req: &c.req, target: target}
	if out, ended := n.launch(&c.f); ended {
		c.finish(nil, out, time.Time{})
	}
	n.wait(ctx, &c.f, c.done)
	if c.pong != nil {
		n.met.PongsReceived.Inc()
	}
	return c.pong, c.at, c.out
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

// peerTimedOut handles a peer whose probe exhausted every attempt:
// with the breaker disabled the peer is evicted outright (the
// protocol's presumed-dead default); with it enabled the timeout feeds
// the breaker, which suppresses the peer after BreakerThreshold
// consecutive timeouts and evicts only when the half-open trial fails.
func (n *Node) peerTimedOut(id cache.PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerTimedOutLocked(id)
}

// peerTimedOutLocked is peerTimedOut for callers that hold n.mu.
func (n *Node) peerTimedOutLocked(id cache.PeerID) {
	evict, opened := n.health.onTimeout(id, time.Now())
	if evict {
		n.link.Remove(id)
		n.syncCacheGauge()
	}
	n.syncBreakerGauge()
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
// backoff and evicted at its third consecutive refusal.
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

// queryScratch is one Query in progress — its record, its flight and
// the request in the air, the hits so far — kept between queries so that
// a query allocates none of it but its hits. The query's steps run on
// whichever goroutine its probes end on; the goroutine that called Query
// waits once, for done.
type queryScratch struct {
	n    *Node
	qc   policy.QueryCache
	f    flight
	req  wire.Query
	done chan struct{}

	ctx     context.Context
	keyword string
	desired int
	// probed is the peer the request in the air went to.
	probed cache.PeerID
	hits   []Hit
}

// maxScratches bounds a node's idle scratches: enough for a few callers
// querying at once, the rest allocate and are collected.
const maxScratches = 4

// getScratch returns a scratch whose query record wants desired
// results, with no probe cap, and holds the link cache snapshot (the
// node itself excluded); callers hold n.mu. Until putScratch, the
// scratch is among n.queries: a sweep keeps every ID its query has
// seen, so none of its candidates, nor the peer it probes, is renumbered
// under it.
func (n *Node) getScratch(desired int) *queryScratch {
	var s *queryScratch
	if last := len(n.scratches) - 1; last >= 0 {
		s, n.scratches = n.scratches[last], n.scratches[:last]
	} else {
		s = &queryScratch{n: n, done: make(chan struct{}, 1)}
		s.f = flight{n: n, owner: s, req: &s.req}
	}
	s.qc.Reset(n.cfg.QueryProbe, n.rng, n.selfID)
	s.qc.Limit(desired, 0)
	for _, e := range n.link.Entries() {
		s.qc.Add(e)
	}
	n.queries = append(n.queries, s)
	return s
}

// putScratch hands a finished query's scratch back, without the storage
// of an exhaustive query over a large network. It leaves n.queries
// before Shed drops the seen set a sweep would read.
func (n *Node) putScratch(s *queryScratch) {
	s.ctx, s.hits = nil, nil
	n.mu.Lock()
	defer n.mu.Unlock()
	i := slices.Index(n.queries, s)
	n.queries = slices.Delete(n.queries, i, i+1)
	s.qc.Shed()
	if len(n.scratches) < maxScratches {
		n.scratches = append(n.scratches, s)
	}
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
	s.ctx, s.keyword, s.desired = ctx, keyword, desired
	s.f.retries, s.f.aborted = 0, false

	if s.advance() {
		n.wait(ctx, &s.f, s.done)
	}
	c := s.qc.Counts()
	stats = QueryStats{Probes: c.Probes, Good: c.Good, Dead: c.Dead, Refused: c.Refused, Retries: s.f.retries}
	return s.hits, stats, nil
}

// finish is the query's step: it records how its probe ended and sends
// the next one, or, when the query is over, wakes Query.
func (s *queryScratch) finish(reply wire.Message, out txOutcome, at time.Time) {
	if out != txAborted {
		s.record(reply, out, at)
		if s.advance() {
			return
		}
	}
	s.done <- struct{}{}
}

// advance sends the query's next probe, recording any that ends before
// it leaves, and reports whether one is in the air; when none is, the
// query is over.
func (s *queryScratch) advance() bool {
	for s.next() {
		out, ended := s.n.launch(&s.f)
		if !ended {
			return true
		}
		if out == txAborted {
			return false
		}
		s.record(nil, out, time.Time{})
	}
	return false
}

// next picks the query's next probe and makes it the flight's request,
// unless the query is done, or ctx or the node is, or the candidates
// are exhausted.
func (s *queryScratch) next() bool {
	n := s.n
	if _, done := s.qc.Done(); done || s.ctx.Err() != nil || n.Draining() {
		return false
	}
	n.mu.Lock()
	// Busy-demoted peers sit out the query instead of wasting a probe
	// on another refusal.
	addr, ok := s.qc.Next(n.suppressedLocked)
	if !ok {
		n.mu.Unlock()
		return false
	}
	target := n.ids.addrs[addr]
	n.mu.Unlock()
	s.probed, s.f.target = addr, target
	s.req = wire.Query{
		MsgID:    n.msgID.Add(1),
		Desired:  uint8(s.desired - len(s.hits)),
		NumFiles: uint32(len(n.cfg.Files)),
		Keyword:  s.keyword,
	}
	return true
}

// record applies how a probe ended to the query's record and to the
// node: the peer's health and cache entry, stamped with the reply's
// arrival, the pong it carried, and the hits.
func (s *queryScratch) record(reply wire.Message, out txOutcome, at time.Time) {
	n, id := s.n, s.probed
	if out == txTimeout {
		// Every attempt unanswered: presumed dead for this query;
		// eviction vs breaker is the health layer's call.
		s.qc.Dead()
		n.peerTimedOut(id)
		return
	}
	switch m := reply.(type) {
	case *wire.Busy:
		s.qc.Refused()
		n.demoteBusy(id)
	case *wire.QueryHit:
		s.qc.Good(len(m.Results))
		n.mu.Lock()
		ts := n.clock(at)
		n.link.Touch(id, ts)
		n.link.SetNumRes(id, int32(len(m.Results)))
		n.health.onSuccess(id)
		// Grow the query cache and the link cache from the
		// piggy-backed pong.
		n.absorbPong(m.Pong, ts, &s.qc)
		n.mu.Unlock()
		for _, name := range m.Results {
			s.hits = append(s.hits, Hit{From: s.f.target, Name: name})
		}
	}
}

// PingPeer sends one explicit ping (bootstrap helper, with the same
// retry schedule as other probes) and reports whether the peer
// answered.
func (n *Node) PingPeer(ctx context.Context, target netip.AddrPort) (bool, error) {
	if n.Draining() {
		return false, errClosed
	}
	pong, at, outcome := n.ping(ctx, target)
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
	ts := n.clock(at)
	n.link.Touch(id, ts)
	n.health.onSuccess(id)
	n.absorbPong(pong.Entries, ts, nil)
	n.mu.Unlock()
	return true, nil
}
