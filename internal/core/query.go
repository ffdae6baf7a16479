package core

import (
	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/obs"
	"repro/internal/policy"
)

// query is the state of one in-flight search. Completed queries are
// recycled through the engine's free list (see getQuery/putQuery), so
// the selector buffers and the visited set are steady-state
// allocation-free.
type query struct {
	// id labels the query in trace events: 1-based in issue order,
	// stable across pooling (reassigned on every startQuery).
	id uint64
	// origin is the querying peer's ID (not slot: slots move on churn,
	// and a query outlives many churn events).
	origin  cache.PeerID
	item    content.ItemID
	started float64
	// round counts probe rounds for trace events.
	round int
	// counted records whether the query started inside the measurement
	// window and should contribute to metrics.
	counted bool
	// burstRemaining queries follow this one back-to-back when it
	// completes (the bursty workload's "succession").
	burstRemaining int

	// k is the current per-round fan-out; lastProgress is when the
	// query last gained a result (both drive AdaptiveParallel).
	k            int
	lastProgress float64

	// qc is the query's record: the candidates not yet probed, every
	// address ever offered (so none is probed twice), the probe counts
	// and the stop rule. Peer IDs start at 1 and fabricated addresses at
	// fakeAddrBase, so every address is one it accepts.
	qc policy.QueryCache
}

// getQuery pops a recycled query (or makes a fresh one). The caller
// must initialize every run-specific field; startQuery does.
func (e *Engine) getQuery() *query {
	if q, ok := pop(&e.freeQueries); ok {
		return q
	}
	return new(query)
}

// putQuery returns a finished query to the free list. Safe because a
// query has at most one pending evProbeStep at any time, and both
// release sites run while handling (or before scheduling) that event —
// so no queued event can still reference q.
func (e *Engine) putQuery(q *query) {
	if e.noReuse {
		return
	}
	q.qc.Shed()
	e.freeQueries = append(e.freeQueries, q)
}

// startQuery begins a new query at the peer in slot p: the target item
// is drawn from the query model, the link cache is snapshotted into the
// candidate set, and the first probe round fires immediately.
func (e *Engine) startQuery(p int, burstRemaining int) {
	q := e.getQuery()
	e.nextQueryID++
	q.id = e.nextQueryID
	q.origin = e.ps.id[p]
	q.item = e.universe.DrawQuery(e.rngContent)
	q.started = e.now
	q.counted = e.now >= e.p.WarmupTime
	q.burstRemaining = burstRemaining
	q.round = 0
	q.k = e.queryParallelism(p)
	q.lastProgress = e.now
	q.qc.Reset(e.p.QueryProbe, e.rngPolicy, q.origin)
	q.qc.Limit(e.p.NumDesiredResults, e.p.MaxProbesPerQuery)
	for _, entry := range e.ps.link[p].Entries() {
		q.qc.Add(entry)
	}
	if q.counted {
		e.inFlightCounted++
	}
	e.observe(q, obs.Event{Kind: obs.EvQueryIssued})
	e.handleProbeStep(q)
}

// handleProbeStep sends the next round of (up to ParallelProbes)
// probes for q and either completes the query or schedules the next
// round.
func (e *Engine) handleProbeStep(q *query) {
	origin := e.ps.slotOf(q.origin)
	if origin < 0 {
		// The querying peer died; the query is abandoned.
		if q.counted {
			e.res.Aborted++
			e.inFlightCounted--
		}
		e.observeQueryDone(q, obs.OutcomeAborted)
		e.putQuery(q)
		return
	}

	q.round++
	e.observe(q, obs.Event{Kind: obs.EvProbeRound, Round: q.round, Probes: q.qc.Counts().Probes})

	// All probes of a round are in flight before any replies arrive, so
	// a round is sent in full even if an early probe already satisfies
	// the query (the paper's "at most k-1 wasted probes").
	e.maybeGrowParallelism(q)
	// Targets the origin is backing off from sit out the query.
	suppressed := func(addr cache.PeerID) bool { return e.suppressedNow(origin, addr, e.now) }
	for i := 0; i < q.k; i++ {
		entry, ok := q.qc.Next(suppressed)
		if !ok {
			break
		}
		e.probeOne(origin, q, entry)
	}
	if satisfied, done := q.qc.Done(); done {
		e.completeQuery(origin, q, satisfied)
	} else {
		e.schedule(e.now+e.p.ProbeSpacing, event{kind: evProbeStep, q: q})
	}
}

// probeOne delivers a single query probe from origin to the peer named
// by entry and processes the outcome (results, pong, introduction,
// cache bookkeeping).
func (e *Engine) probeOne(origin int, q *query, entry cache.Entry) {
	addr := entry.Addr
	target := e.ps.slotOf(addr)
	if target < 0 {
		// Timeout: the peer is presumed dead and evicted.
		q.qc.Dead()
		e.ps.link[origin].Remove(addr)
		e.blameDeadAddress(origin, addr)
		e.observeProbe(q, addr, obs.OutcomeDead, 0)
		return
	}

	if e.now >= e.p.WarmupTime {
		e.ps.probesReceived[target]++
	}
	if e.addLoad(target, e.now, e.p.MaxProbesPerSecond) {
		// Refused: the overloaded peer drops the probe. Without
		// back-off the prober treats it like a dead peer (the
		// protocol's inherent throttling); with back-off the entry is
		// kept but suppressed for a while.
		q.qc.Refused()
		if e.p.DoBackoff {
			e.suppress(origin, addr, e.now+e.p.BackoffPeriod)
		} else {
			e.ps.link[origin].Remove(addr)
		}
		e.observeProbe(q, addr, obs.OutcomeRefused, 0)
		return
	}

	e.maybeIntroduce(target, origin)
	res := 0
	if !e.ps.malicious[target] {
		res = e.ps.lib[target].Results(q.item)
	}
	q.qc.Good(res)
	if res > 0 {
		q.lastProgress = e.now
	}
	e.observeProbe(q, addr, obs.OutcomeGood, res)

	// Both sides record the interaction; the prober also refreshes its
	// direct NumRes experience with the target.
	e.ps.link[origin].Touch(addr, e.now)
	e.ps.link[origin].SetNumRes(addr, int32(res))
	e.ps.link[target].Touch(q.origin, e.now)

	// The pong rides along with the query response: new candidates for
	// this query's cache and fodder for the link cache. Blacklisted
	// suppliers' pongs are dropped (poison detection).
	if e.pongSourceBlocked(origin, addr) {
		return
	}
	pong := e.buildPong(target, e.p.QueryPong)
	for _, pe := range pong {
		if pe.Addr == q.origin {
			continue
		}
		pe.Direct = false
		if e.p.ResetNumResults {
			pe.NumRes = 0
		}
		e.recordSupplied(origin, addr, pe.Addr)
		q.qc.Add(pe)
		e.insertEntry(origin, pe)
	}
	if len(pong) > 0 {
		e.observe(q, obs.Event{Kind: obs.EvPong, Target: uint64(addr), Entries: len(pong)})
	}
}

// completeQuery records metrics and chains the next query of the burst.
func (e *Engine) completeQuery(origin int, q *query, satisfied bool) {
	if q.counted {
		c := q.qc.Counts()
		e.inFlightCounted--
		e.res.Queries++
		if satisfied {
			e.res.Satisfied++
		} else {
			e.res.Unsatisfied++
		}
		e.res.ProbesTotal += int64(c.Probes)
		e.res.GoodProbes += int64(c.Good)
		e.res.DeadProbes += int64(c.Dead)
		e.res.RefusedProbes += int64(c.Refused)
		e.res.ResponseTimeSum += e.now - q.started
	}
	if satisfied {
		e.observeQueryDone(q, obs.OutcomeSatisfied)
	} else {
		e.observeQueryDone(q, obs.OutcomeExhausted)
	}
	// Recycle before chaining so the burst's next query can reuse this
	// one's storage immediately.
	burst := q.burstRemaining
	e.putQuery(q)
	if burst > 0 {
		e.startQuery(origin, burst-1)
	}
}

// observe emits ev, one step of q, stamped with the time, the query
// and its origin.
func (e *Engine) observe(q *query, ev obs.Event) {
	if e.observer != nil {
		ev.Time, ev.Query, ev.Peer = e.now, q.id, uint64(q.origin)
		e.observer.Observe(ev)
	}
}

// observeProbe emits the trace event for one probe of q to addr, which
// ended in outcome with res results.
func (e *Engine) observeProbe(q *query, addr cache.PeerID, outcome obs.Outcome, res int) {
	e.observe(q, obs.Event{Kind: obs.EvProbe, Target: uint64(addr), Outcome: outcome, Results: res})
}

// observeQueryDone emits the trace event for q ending in outcome, with
// the probes it sent and the results it got.
func (e *Engine) observeQueryDone(q *query, outcome obs.Outcome) {
	c := q.qc.Counts()
	e.observe(q, obs.Event{Kind: obs.EvQueryDone, Outcome: outcome, Probes: c.Probes, Results: c.Results})
}
