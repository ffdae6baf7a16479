package core

// The reference GUESS engine: the simulation written as a plain
// program, with none of what Engine does for speed, and the tests that
// hold Engine to it draw for draw. Engine must consume every random
// stream, order every event, count every probe and write every trace
// row exactly as the reference does.
//
// The reference shares with Engine only packages that are checked
// against references of their own: cache (the link cache), policy
// (Pick, PickN, Insert, QueryCache, Scratch.SampleIndices), content,
// lifetime, workload, simrng and overlay.WCCScratch. It re-implements
// plainly what Engine optimizes:
//
//   - peers are a slice of *refPeer, swap-removed on death, plus a map
//     from ID; friend and sample draws index the slice, so its order is
//     Engine's slot order;
//   - nothing is pooled or recycled: every birth makes its link cache,
//     library and extension maps, every query its record, every pong its
//     slice;
//   - one container/heap ordered on (time, seq) queues every event,
//     those past the end of the run included;
//   - a sample counts, reduces and unions in separate passes;
//   - trace rows are written with fmt.Fprintf.
//
// Running out of peer IDs or fabricated addresses is not modelled: no
// run here comes near 2^30 births.

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/lifetime"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/workload"
)

type refPeer struct {
	id             cache.PeerID
	advertised     int32
	malicious      bool
	selfish        bool
	lib            content.Library
	link           *cache.LinkCache
	winStart       float64
	winCount       int
	probesReceived int64

	// Extension state, made at birth whether or not an extension is on.
	provenance map[cache.PeerID]cache.PeerID
	pongStats  map[cache.PeerID]supplierRecord
	blacklist  map[cache.PeerID]bool
	suppressed map[cache.PeerID]float64
}

type refQuery struct {
	id             uint64
	origin         cache.PeerID
	item           content.ItemID
	started        float64
	round          int
	counted        bool
	burstRemaining int
	k              int
	lastProgress   float64
	qc             policy.QueryCache
}

type refEvent struct {
	kind evKind
	peer cache.PeerID
	q    *refQuery
}

type refItem struct {
	at  float64
	seq uint64
	ev  refEvent
}

// refHeap orders events by time and, among equal times, by push order.
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

type refEngine struct {
	p        Params
	universe *content.Universe
	life     *lifetime.Model
	gen      *workload.Generator

	rngSeeding, rngChurn, rngContent, rngWorkload, rngPolicy, rngIntro *simrng.RNG

	now, end float64
	events   refHeap
	seq      uint64

	peers    []*refPeer
	byID     map[cache.PeerID]*refPeer
	bad      []cache.PeerID
	nextID   cache.PeerID
	nextFake cache.PeerID
	lieFiles int32

	res             Results
	loads           []int64
	inFlightCounted int
	nextQueryID     uint64

	sumHeld, sumLive, sumLiveFrac, sumGood, sumWCC float64
	traceHeader                                    bool
	traceErr                                       error

	// observed is the event stream, in blocks of eventBlock events so
	// that recording a long run copies no event twice.
	observed  [][]obs.Event
	nObserved int
}

const eventBlock = 1 << 14

// event returns the i-th observed event.
func (r *refEngine) event(i int) obs.Event { return r.observed[i/eventBlock][i%eventBlock] }

func newReference(t *testing.T, p Params) *refEngine {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	universe, err := content.New(p.Content)
	if err != nil {
		t.Fatal(err)
	}
	life, err := lifetime.New(p.LifespanMultiplier)
	if err != nil {
		t.Fatal(err)
	}
	r := &refEngine{
		p:        p,
		universe: universe,
		life:     life,
		end:      p.WarmupTime + p.MeasureTime,
		byID:     map[cache.PeerID]*refPeer{},
		nextID:   1,
		nextFake: fakeAddrBase,
		lieFiles: int32(universe.MaxLibrary()),
	}
	if p.QueriesEnabled {
		if r.gen, err = workload.New(p.QueryRate); err != nil {
			t.Fatal(err)
		}
	}
	root := simrng.New(p.Seed)
	r.rngSeeding = root.Stream("seeding")
	r.rngChurn = root.Stream("churn")
	r.rngContent = root.Stream("content")
	r.rngWorkload = root.Stream("workload")
	r.rngPolicy = root.Stream("policy")
	r.rngIntro = root.Stream("intro")
	return r
}

func (r *refEngine) schedule(at float64, ev refEvent) {
	r.seq++
	heap.Push(&r.events, refItem{at: at, seq: r.seq, ev: ev})
}

func (r *refEngine) observe(ev obs.Event) {
	if r.nObserved%eventBlock == 0 {
		r.observed = append(r.observed, make([]obs.Event, 0, eventBlock))
	}
	last := len(r.observed) - 1
	r.observed[last] = append(r.observed[last], ev)
	r.nObserved++
}

func (r *refEngine) run() *Results {
	r.bootstrap()
	r.schedule(r.p.WarmupTime, refEvent{kind: evSample})
	for len(r.events) > 0 && r.events[0].at <= r.end {
		it := heap.Pop(&r.events).(refItem)
		r.now = it.at
		switch it.ev.kind {
		case evDeath:
			r.handleDeath(it.ev.peer)
		case evPing:
			r.handlePing(it.ev.peer)
		case evBurst:
			r.handleBurst(it.ev.peer)
		case evProbeStep:
			r.handleProbeStep(it.ev.q)
		case evSample:
			r.handleSample()
		}
	}
	r.finalize()
	return &r.res
}

func (r *refEngine) bootstrap() {
	n := r.p.NetworkSize
	numBad, numSelfish := r.p.numBadPeers(), r.p.numSelfishPeers()
	perm := r.rngSeeding.Perm(n)
	bad := make([]bool, n)
	selfish := make([]bool, n)
	for i, slot := range perm {
		bad[slot] = i < numBad
		selfish[slot] = i >= numBad && i < numBad+numSelfish
	}
	for i := 0; i < n; i++ {
		r.spawn(bad[i], selfish[i])
	}
	var sc policy.Scratch
	for _, p := range r.peers {
		for _, j := range sc.SampleIndices(r.rngSeeding, len(r.peers), r.p.seedSize()) {
			if q := r.peers[j]; q != p {
				p.link.Add(cache.Entry{Addr: q.id, NumFiles: q.advertised})
			}
		}
	}
}

func (r *refEngine) spawn(malicious, selfish bool) *refPeer {
	lib := r.universe.NewLibrary(r.rngContent, r.universe.SampleLibrarySize(r.rngContent))
	p := &refPeer{
		id:         r.nextID,
		advertised: int32(lib.Size()),
		malicious:  malicious,
		selfish:    selfish,
		lib:        lib,
		link:       cache.NewLinkCache(r.p.CacheSize),
		winStart:   -1,
		provenance: map[cache.PeerID]cache.PeerID{},
		pongStats:  map[cache.PeerID]supplierRecord{},
		blacklist:  map[cache.PeerID]bool{},
		suppressed: map[cache.PeerID]float64{},
	}
	r.nextID++
	if malicious {
		p.advertised = r.lieFiles
		r.bad = append(r.bad, p.id)
	}
	deathAt := r.now + r.life.Sample(r.rngChurn)
	r.peers = append(r.peers, p)
	r.byID[p.id] = p
	r.res.Births++
	r.observe(obs.Event{Kind: obs.EvPeerBirth, Time: r.now, Peer: uint64(p.id)})
	r.schedule(deathAt, refEvent{kind: evDeath, peer: p.id})
	r.schedule(r.now+r.rngChurn.Float64()*r.p.PingInterval, refEvent{kind: evPing, peer: p.id})
	if r.p.QueriesEnabled && !malicious {
		delay, _ := r.gen.NextBurst(r.rngWorkload)
		r.schedule(r.now+delay, refEvent{kind: evBurst, peer: p.id})
	}
	return p
}

func (r *refEngine) handleDeath(id cache.PeerID) {
	p := r.byID[id]
	if p == nil {
		return
	}
	delete(r.byID, id)
	slot := slices.Index(r.peers, p)
	last := len(r.peers) - 1
	r.peers[slot] = r.peers[last]
	r.peers = r.peers[:last]
	if p.malicious {
		i := slices.Index(r.bad, id)
		r.bad[i] = r.bad[len(r.bad)-1]
		r.bad = r.bad[:len(r.bad)-1]
	}
	r.res.Deaths++
	r.observe(obs.Event{Kind: obs.EvPeerDeath, Time: r.now, Peer: uint64(id)})
	if r.now >= r.p.WarmupTime {
		r.loads = append(r.loads, p.probesReceived)
	}

	np := r.spawn(p.malicious, p.selfish)
	if len(r.peers) == 1 {
		return
	}
	friend := np
	for friend == np {
		friend = r.peers[r.rngChurn.Intn(len(r.peers))]
	}
	for _, entry := range friend.link.Entries() {
		if entry.Addr != np.id {
			np.link.Add(entry)
		}
	}
	np.link.Add(cache.Entry{Addr: friend.id, TS: r.now, NumFiles: friend.advertised, Direct: true})
}

func (r *refEngine) handlePing(id cache.PeerID) {
	p := r.byID[id]
	if p == nil {
		return
	}
	r.schedule(r.now+r.p.PingInterval, refEvent{kind: evPing, peer: id})
	entries := p.link.Entries()
	i := policy.Pick(r.rngPolicy, r.p.PingProbe, entries)
	if i < 0 {
		return
	}
	addr := entries[i].Addr
	target := r.byID[addr]
	measuring := r.now >= r.p.WarmupTime
	if target == nil {
		p.link.Remove(addr)
		r.blame(p, addr)
		if measuring {
			r.res.Pings++
			r.res.DeadPings++
		}
		r.observe(obs.Event{Kind: obs.EvPing, Time: r.now, Peer: uint64(id), Target: uint64(addr), Outcome: obs.OutcomeDead})
		return
	}
	if measuring {
		r.res.Pings++
	}
	r.observe(obs.Event{Kind: obs.EvPing, Time: r.now, Peer: uint64(id), Target: uint64(addr), Outcome: obs.OutcomeGood})
	p.link.Touch(addr, r.now)
	target.link.Touch(id, r.now)
	r.introduce(target, p)
	pong := r.pong(target, r.p.PingPong)
	if p.blacklist[addr] {
		return
	}
	r.observe(obs.Event{Kind: obs.EvPong, Time: r.now, Peer: uint64(id), Target: uint64(addr), Entries: len(pong)})
	for _, entry := range pong {
		if entry.Addr == id {
			continue
		}
		entry.Direct = false
		if r.p.ResetNumResults {
			entry.NumRes = 0
		}
		r.supplied(p, addr, entry.Addr)
		policy.Insert(r.rngPolicy, r.p.CacheReplacement, p.link, entry)
	}
}

func (r *refEngine) handleBurst(id cache.PeerID) {
	p := r.byID[id]
	if p == nil {
		return
	}
	delay, size := r.gen.NextBurst(r.rngWorkload)
	r.schedule(r.now+delay, refEvent{kind: evBurst, peer: id})
	r.startQuery(p, size-1)
}

func (r *refEngine) introduce(host, initiator *refPeer) {
	if r.rngIntro.Bool(r.p.IntroProb) {
		policy.Insert(r.rngPolicy, r.p.CacheReplacement, host.link,
			cache.Entry{Addr: initiator.id, TS: r.now, NumFiles: initiator.advertised, Direct: true})
	}
}

// pong is host's answer to a ping or a probe: entries of its cache
// chosen under sel or, from a malicious host, a poisoned list.
func (r *refEngine) pong(host *refPeer, sel policy.Selection) []cache.Entry {
	if r.p.PongSize <= 0 {
		return nil
	}
	if host.malicious {
		if r.p.BadPong != BadPongGood {
			return r.badPong(host)
		}
		sel = policy.SelRandom
	}
	out := make([]cache.Entry, 0, r.p.PongSize)
	entries := host.link.Entries()
	for _, j := range policy.PickN(r.rngPolicy, sel, entries, r.p.PongSize) {
		out = append(out, entries[j])
	}
	return out
}

// badPong is a poisoned pong: other colluders with maximal credentials
// under BadPongBad, while there are any, and fresh never-live addresses
// otherwise.
func (r *refEngine) badPong(host *refPeer) []cache.Entry {
	out := make([]cache.Entry, 0, r.p.PongSize)
	if r.p.BadPong == BadPongBad {
		var colluders []cache.PeerID
		for _, b := range r.bad {
			if b != host.id {
				colluders = append(colluders, b)
			}
		}
		if len(colluders) > 0 {
			for i := 0; i < r.p.PongSize; i++ {
				b := colluders[r.rngPolicy.Intn(len(colluders))]
				out = append(out, cache.Entry{Addr: b, TS: r.now, NumFiles: r.lieFiles, NumRes: 1000})
			}
			return out
		}
	}
	for i := 0; i < r.p.PongSize; i++ {
		out = append(out, cache.Entry{Addr: r.nextFake, TS: r.now, NumFiles: r.lieFiles})
		r.nextFake++
	}
	return out
}

// supplied records, for poison detection, that source handed p addr.
func (r *refEngine) supplied(p *refPeer, source, addr cache.PeerID) {
	if !r.p.PoisonDetection {
		return
	}
	p.provenance[addr] = source
	rec := p.pongStats[source]
	rec.given++
	p.pongStats[source] = rec
}

// blame charges the supplier of the dead address addr, and blacklists
// and evicts it once enough of what it supplied was dead.
func (r *refEngine) blame(p *refPeer, addr cache.PeerID) {
	if !r.p.PoisonDetection {
		return
	}
	source, ok := p.provenance[addr]
	if !ok {
		return
	}
	delete(p.provenance, addr)
	rec, ok := p.pongStats[source]
	if !ok {
		return
	}
	rec.dead++
	p.pongStats[source] = rec
	if !p.blacklist[source] && rec.given >= r.p.PoisonMinSamples &&
		float64(rec.dead)/float64(rec.given) >= r.p.PoisonThreshold {
		p.blacklist[source] = true
		p.link.Remove(source)
		r.res.BlacklistEvents++
	}
}

func (r *refEngine) startQuery(p *refPeer, burstRemaining int) {
	r.nextQueryID++
	q := &refQuery{
		id:             r.nextQueryID,
		origin:         p.id,
		item:           r.universe.DrawQuery(r.rngContent),
		started:        r.now,
		counted:        r.now >= r.p.WarmupTime,
		burstRemaining: burstRemaining,
		k:              r.p.ParallelProbes,
		lastProgress:   r.now,
	}
	if p.selfish && !r.p.ProbePayments {
		q.k = r.p.SelfishParallelProbes
	}
	q.qc.Reset(r.p.QueryProbe, r.rngPolicy, q.origin)
	q.qc.Limit(r.p.NumDesiredResults, r.p.MaxProbesPerQuery)
	for _, entry := range p.link.Entries() {
		q.qc.Add(entry)
	}
	if q.counted {
		r.inFlightCounted++
	}
	r.observeQuery(q, obs.Event{Kind: obs.EvQueryIssued})
	r.handleProbeStep(q)
}

func (r *refEngine) observeQuery(q *refQuery, ev obs.Event) {
	ev.Time, ev.Query, ev.Peer = r.now, q.id, uint64(q.origin)
	r.observe(ev)
}

func (r *refEngine) handleProbeStep(q *refQuery) {
	origin := r.byID[q.origin]
	if origin == nil {
		if q.counted {
			r.res.Aborted++
			r.inFlightCounted--
		}
		c := q.qc.Counts()
		r.observeQuery(q, obs.Event{Kind: obs.EvQueryDone, Outcome: obs.OutcomeAborted, Probes: c.Probes, Results: c.Results})
		return
	}
	q.round++
	r.observeQuery(q, obs.Event{Kind: obs.EvProbeRound, Round: q.round, Probes: q.qc.Counts().Probes})
	if r.p.AdaptiveParallel && r.now-q.lastProgress >= r.p.AdaptiveParallelWindow {
		q.k = min(2*q.k, r.p.MaxParallelProbes)
		q.lastProgress = r.now
	}
	backingOff := func(addr cache.PeerID) bool {
		until, ok := origin.suppressed[addr]
		if ok && r.now >= until {
			delete(origin.suppressed, addr)
			return false
		}
		return ok
	}
	for i := 0; i < q.k; i++ {
		addr, ok := q.qc.Next(backingOff)
		if !ok {
			break
		}
		r.probe(origin, q, addr)
	}
	satisfied, done := q.qc.Done()
	if !done {
		r.schedule(r.now+r.p.ProbeSpacing, refEvent{kind: evProbeStep, q: q})
		return
	}
	c := q.qc.Counts()
	if q.counted {
		r.inFlightCounted--
		r.res.Queries++
		if satisfied {
			r.res.Satisfied++
		} else {
			r.res.Unsatisfied++
		}
		r.res.ProbesTotal += int64(c.Probes)
		r.res.GoodProbes += int64(c.Good)
		r.res.DeadProbes += int64(c.Dead)
		r.res.RefusedProbes += int64(c.Refused)
		r.res.ResponseTimeSum += r.now - q.started
	}
	outcome := obs.OutcomeExhausted
	if satisfied {
		outcome = obs.OutcomeSatisfied
	}
	r.observeQuery(q, obs.Event{Kind: obs.EvQueryDone, Outcome: outcome, Probes: c.Probes, Results: c.Results})
	if q.burstRemaining > 0 {
		r.startQuery(origin, q.burstRemaining-1)
	}
}

func (r *refEngine) probe(origin *refPeer, q *refQuery, addr cache.PeerID) {
	target := r.byID[addr]
	if target == nil {
		q.qc.Dead()
		origin.link.Remove(addr)
		r.blame(origin, addr)
		r.observeQuery(q, obs.Event{Kind: obs.EvProbe, Target: uint64(addr), Outcome: obs.OutcomeDead})
		return
	}
	if r.now >= r.p.WarmupTime {
		target.probesReceived++
	}
	if capacity := r.p.MaxProbesPerSecond; capacity > 0 {
		if sec := math.Floor(r.now); sec != target.winStart {
			target.winStart, target.winCount = sec, 0
		}
		target.winCount++
		if target.winCount > capacity {
			q.qc.Refused()
			if r.p.DoBackoff {
				origin.suppressed[addr] = r.now + r.p.BackoffPeriod
			} else {
				origin.link.Remove(addr)
			}
			r.observeQuery(q, obs.Event{Kind: obs.EvProbe, Target: uint64(addr), Outcome: obs.OutcomeRefused})
			return
		}
	}
	r.introduce(target, origin)
	res := 0
	if !target.malicious {
		res = target.lib.Results(q.item)
	}
	q.qc.Good(res)
	if res > 0 {
		q.lastProgress = r.now
	}
	r.observeQuery(q, obs.Event{Kind: obs.EvProbe, Target: uint64(addr), Outcome: obs.OutcomeGood, Results: res})
	origin.link.Touch(addr, r.now)
	origin.link.SetNumRes(addr, int32(res))
	target.link.Touch(q.origin, r.now)
	if origin.blacklist[addr] {
		return
	}
	pong := r.pong(target, r.p.QueryPong)
	for _, entry := range pong {
		if entry.Addr == q.origin {
			continue
		}
		entry.Direct = false
		if r.p.ResetNumResults {
			entry.NumRes = 0
		}
		r.supplied(origin, addr, entry.Addr)
		q.qc.Add(entry)
		policy.Insert(r.rngPolicy, r.p.CacheReplacement, origin.link, entry)
	}
	if len(pong) > 0 {
		r.observeQuery(q, obs.Event{Kind: obs.EvPong, Target: uint64(addr), Entries: len(pong)})
	}
}

// sample scans the population in three passes: per-peer live and good
// tallies, their reduction in slice order, and, with connectivity, a
// union-find over slice indices.
func (r *refEngine) sample(connectivity bool) overlaySample {
	n := len(r.peers)
	live, good := make([]int, n), make([]int, n)
	for i, p := range r.peers {
		for _, entry := range p.link.Entries() {
			if target := r.byID[entry.Addr]; target != nil {
				live[i]++
				if !target.malicious {
					good[i]++
				}
			}
		}
	}
	var s overlaySample
	for i, p := range r.peers {
		held := p.link.Len()
		s.held += float64(held)
		s.live += float64(live[i])
		if held > 0 {
			s.fracSum += float64(live[i]) / float64(held)
			s.fracPeers++
		}
		if !p.malicious {
			s.goodSum += float64(good[i])
			s.goodPeers++
		}
	}
	if !connectivity {
		return s
	}
	slot := make(map[cache.PeerID]int, n)
	for i, p := range r.peers {
		slot[p.id] = i
	}
	var wcc overlay.WCCScratch
	wcc.Reset(n)
	for i, p := range r.peers {
		for _, entry := range p.link.Entries() {
			if j, ok := slot[entry.Addr]; ok && entry.Addr != p.id {
				wcc.Union(i, j)
			}
		}
	}
	s.largestWCC = wcc.Largest()
	return s
}

// population returns a reference holding e's peers as they stand, in
// slot order, each sharing its slot's link cache, so that its sample
// scans the overlay e.scanOverlay does.
func population(e *Engine) *refEngine {
	r := &refEngine{byID: map[cache.PeerID]*refPeer{}}
	for i, id := range e.ps.id {
		p := &refPeer{id: id, malicious: e.ps.malicious[i], link: &e.ps.link[i]}
		r.peers = append(r.peers, p)
		r.byID[id] = p
	}
	return r
}

func (r *refEngine) handleSample() {
	r.schedule(r.now+r.p.SampleInterval, refEvent{kind: evSample})
	s := r.sample(r.p.SampleConnectivity)
	nf := float64(len(r.peers))
	var avgHeld, avgLive float64
	if nf > 0 {
		avgHeld, avgLive = s.held/nf, s.live/nf
		r.sumHeld += avgHeld
		r.sumLive += avgLive
	}
	if s.fracPeers > 0 {
		r.sumLiveFrac += s.fracSum / float64(s.fracPeers)
	}
	if s.goodPeers > 0 {
		r.sumGood += s.goodSum / float64(s.goodPeers)
	}
	r.res.CacheSamples++
	if r.p.SampleConnectivity {
		r.sumWCC += float64(s.largestWCC)
		r.res.ConnectivityRuns++
	}
	if r.p.Trace == nil || r.traceErr != nil {
		return
	}
	if !r.traceHeader {
		r.traceHeader = true
		if _, r.traceErr = fmt.Fprint(r.p.Trace, "time,births,deaths,queries,satisfied,probes,avgHeld,avgLive\n"); r.traceErr != nil {
			return
		}
	}
	_, r.traceErr = fmt.Fprintf(r.p.Trace, "%.0f,%d,%d,%d,%d,%d,%.2f,%.2f\n",
		r.now, r.res.Births, r.res.Deaths, r.res.Queries, r.res.Satisfied, r.res.ProbesTotal, avgHeld, avgLive)
}

func (r *refEngine) finalize() {
	for _, p := range r.peers {
		r.loads = append(r.loads, p.probesReceived)
	}
	r.res.PeerLoads = r.loads
	r.res.Aborted += r.inFlightCounted
	if s := float64(r.res.CacheSamples); s > 0 {
		r.res.AvgCacheEntries = r.sumHeld / s
		r.res.AvgLiveEntries = r.sumLive / s
		r.res.AvgLiveFraction = r.sumLiveFrac / s
		r.res.AvgGoodEntries = r.sumGood / s
	}
	if r.res.ConnectivityRuns > 0 {
		r.res.AvgLargestWCC = r.sumWCC / float64(r.res.ConnectivityRuns)
		r.res.FinalLargestWCC = r.sample(true).largestWCC
	}
}

func nextDraws(streams ...*simrng.RNG) (d [6]uint64) {
	for i, s := range streams {
		d[i] = s.Uint64()
	}
	return d
}

// requireReference runs p on the reference and then on a fresh engine,
// or on prev's storage, and fails unless the engine's run shows what the
// reference's does: the same Results, CSV trace and observer event
// stream, byte for byte, and the same next draw from every random
// stream, in the order seeding, churn, content, workload, policy, intro.
// It also requires Run to leave no event queued. The engine and the
// reference are returned as their runs left them.
func requireReference(t *testing.T, what string, p Params, prev *Engine) (*Engine, *refEngine) {
	t.Helper()
	var refTrace, trace strings.Builder
	p.Trace = &refTrace
	ref := newReference(t, p)
	want := ref.run()
	if ref.traceErr != nil {
		t.Fatal(ref.traceErr)
	}
	if refTrace.Len() == 0 || ref.nObserved == 0 {
		t.Fatalf("%s: empty trace or event stream; the comparison is vacuous", what)
	}

	p.Trace = &trace
	var e *Engine
	var err error
	if prev == nil {
		e, err = New(p)
	} else {
		e, err = prev.Renew(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Each event is checked as it arrives, so the engine's stream is
	// never held in memory.
	n := 0
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) {
		if n < ref.nObserved && ev != ref.event(n) {
			t.Fatalf("%s: event %d differs:\n%+v\n%+v", what, n, ev, ref.event(n))
		}
		n++
	}))
	got, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != ref.nObserved {
		t.Fatalf("%s: %d events, want %d", what, n, ref.nObserved)
	}
	if g, w := marshalResults(t, got), marshalResults(t, want); g != w {
		t.Fatalf("%s: Results differ:\n%s\n%s", what, g, w)
	}
	if g, w := trace.String(), refTrace.String(); g != w {
		l1, l2 := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("%s: CSV traces differ at line %d:\n%q\n%q", what, i, l1[i], l2[i])
			}
		}
		t.Fatalf("%s: CSV traces of %d and %d lines", what, len(l1), len(l2))
	}
	g := nextDraws(e.rngSeeding, e.rngChurn, e.rngContent, e.rngWorkload, e.rngPolicy, e.rngIntro)
	w := nextDraws(ref.rngSeeding, ref.rngChurn, ref.rngContent, ref.rngWorkload, ref.rngPolicy, ref.rngIntro)
	if g != w {
		t.Fatalf("%s: next draws of the random streams differ:\n%v\n%v", what, g, w)
	}
	if n := e.events.Len(); n != 0 {
		t.Fatalf("%s: Run returned with %d events queued", what, n)
	}
	return e, ref
}

// reuseTestConfigs covers every path on which Engine recycles storage:
// random and scored pong selection, colluding/dead/genuine poisoning,
// backoff and probe refusal, connectivity sampling, adaptive
// parallelism, burst chaining through the query pool, and heavy churn
// recycling caches and libraries.
func reuseTestConfigs() map[string]Params {
	cfgs := map[string]Params{}
	base := quickParams()
	base.MeasureTime = 200 // keep the battery fast; coverage over duration

	cfgs["default"] = base

	p := base
	p.QueryProbe, p.QueryPong = policy.SelMFS, policy.SelMFS
	p.PingProbe, p.PingPong = policy.SelMRU, policy.SelLRU
	p.CacheReplacement = policy.EvLFS
	cfgs["scored"] = p

	p = base
	p.QueryProbe, p.QueryPong = policy.SelMR, policy.SelMRStar
	p.CacheReplacement = policy.EvLRStar
	p.ResetNumResults = true
	cfgs["mrstar"] = p

	p = base
	p.PercentBadPeers = 25
	p.BadPong = BadPongBad
	p.QueryProbe = policy.SelMR
	cfgs["collude"] = p

	p = base
	p.PercentBadPeers = 25
	p.BadPong = BadPongGood
	p.PoisonDetection = true
	cfgs["poison-detect"] = p

	p = base
	p.SampleConnectivity = true
	cfgs["connectivity"] = p

	p = base
	p.MaxProbesPerSecond = 3
	p.DoBackoff = true
	p.AdaptiveParallel = true
	p.PercentSelfishPeers = 10
	cfgs["stressed"] = p

	p = base
	p.CacheSize = 8
	p.PongSize = 11 // pong larger than cache: PickN clamps
	cfgs["clamped-pong"] = p

	return cfgs
}

// scheduleTestConfigs are runs whose queues end differently: each leaves
// some kind of event past the end, or none where one might expect it.
func scheduleTestConfigs() map[string]Params {
	base := quickParams()
	base.MeasureTime = 200
	cfgs := map[string]Params{}

	p := base
	p.QueryRate = 0.06 // a burst every quarter minute per peer
	cfgs["bursty"] = p

	p = base
	p.MaxProbesPerQuery = 7
	cfgs["max-probes"] = p

	p = base
	p.MaxProbesPerSecond = 3
	p.DoBackoff = true
	cfgs["backoff"] = p

	p = base
	p.PercentBadPeers = 25
	p.BadPong = BadPongDead
	p.PoisonDetection = true
	cfgs["bad-peers"] = p

	p = base
	p.LifespanMultiplier = 0.05 // most deaths fall inside the run
	cfgs["short-lives"] = p

	p = base
	p.SampleInterval = 70 // 100, 170, 240: the next sample would be at 310 > 300
	cfgs["sample-not-dividing"] = p

	// Enough peers querying for exhaustive searches (no peer holds a
	// nonexistent item) to be in flight when the run ends, and a sample
	// interval that puts the last sample exactly at the end.
	p = base
	p.NetworkSize = 500
	p.WarmupTime, p.MeasureTime = 20, 40
	p.QueryRate = 0.05
	p.SampleInterval = 10
	cfgs["in-flight"] = p

	return cfgs
}

// TestReusePathsMatchReference holds Engine, with its pooling,
// recycling and struct-of-arrays peers, to the reference, which pools
// nothing, on every path where Engine recycles storage.
func TestReusePathsMatchReference(t *testing.T) {
	requireConfigsMatchReference(t, reuseTestConfigs())
}

// TestRunMatchesUnfilteredQueue holds Engine, whose queue drops what
// falls past the end of the run, to the reference, whose queue holds
// everything, on runs whose queues end differently.
func TestRunMatchesUnfilteredQueue(t *testing.T) {
	requireConfigsMatchReference(t, scheduleTestConfigs())
}

// requireConfigsMatchReference runs each configuration, three seeds
// each, on Engine and on the reference and requires the same Results,
// CSV trace and observer event stream, byte for byte, and the same next
// draw from every random stream. It also requires what makes the end of
// the run a test: the reference has events past the end, and the
// sample counts of in-flight and sample-not-dividing hold.
func requireConfigsMatchReference(t *testing.T, cfgs map[string]Params) {
	//lint:maporder-ok subtests are independent; execution order does not affect any result
	for name, p := range cfgs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			left := map[evKind]int{}
			for seed := uint64(1); seed <= 3; seed++ {
				p.Seed = seed * 17
				e, ref := requireReference(t, fmt.Sprintf("seed %d", p.Seed), p, nil)
				for _, it := range ref.events {
					left[it.ev.kind]++
				}
				// Samples at 20, 30, 40, 50 and, exactly at the end, 60; at
				// 100, 170 and 240, the next one past the end at 310.
				if n, ok := map[string]int{"in-flight": 5, "sample-not-dividing": 3}[name]; ok && e.res.CacheSamples != n {
					t.Fatalf("seed %d: %d samples, want %d", p.Seed, e.res.CacheSamples, n)
				}
			}
			// The reference must have had events past the end, or
			// Engine's dropping them is not under test.
			for _, k := range []evKind{evDeath, evPing, evBurst} {
				if left[k] == 0 {
					t.Fatalf("the reference ended with no event of kind %d past the end", k)
				}
			}
			if name == "in-flight" && left[evProbeStep] == 0 {
				t.Fatal("no query was in flight at the end of the run")
			}
		})
	}
}

// TestRenewAcrossRunLengths chains engines whose runs get shorter and
// longer, and holds each to the reference: the end of a run belongs to
// the renewed engine, not to the storage it inherits.
func TestRenewAcrossRunLengths(t *testing.T) {
	base := quickParams()
	base.MeasureTime = 200
	short := base
	short.WarmupTime, short.MeasureTime = 50, 30
	short.SampleInterval = 20
	long := base
	long.MeasureTime = 450
	long.Seed = 5

	var prev *Engine
	for i, p := range []Params{base, short, long, short, base} {
		prev, _ = requireReference(t, fmt.Sprintf("run %d", i), p, prev)
	}
}

// FuzzEngineParams holds Engine to the reference on small fuzzed
// configurations: every selection and eviction policy, malicious and
// selfish peers, probe capacity and back-off, and every extension.
func FuzzEngineParams(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint32(0), uint8(0), uint8(0), uint8(20), uint16(0))
	// Every extension, probe payments and a probe cap; capacity 3.
	f.Add(uint64(7), uint8(126), uint32(1554), uint8(37), uint8(217), uint8(5), uint16(0x313f))
	// Selfish peers without payments, adaptive parallelism, connectivity
	// and certain introduction; capacity 2.
	f.Add(uint64(3), uint8(30), uint32(4321), uint8(25), uint8(140), uint8(200), uint16(0x2243))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, policies uint32, bad, selfish, cacheSize uint8, flags uint16) {
		sels := []policy.Selection{policy.SelRandom, policy.SelMRU, policy.SelLRU, policy.SelMFS, policy.SelMR, policy.SelMRStar}
		evs := []policy.Eviction{policy.EvRandom, policy.EvLRU, policy.EvMRU, policy.EvLFS, policy.EvLR, policy.EvLRStar}
		pick := func(n int) int { // the next base-n digit of policies
			d := int(policies % uint32(n))
			policies /= uint32(n)
			return d
		}
		bit := func(i int) bool { return flags&(1<<i) != 0 }

		p := quickParams()
		p.Seed = seed
		p.NetworkSize = 2 + int(size)%127
		p.WarmupTime, p.MeasureTime = 20, 60
		p.SampleInterval = []float64{7, 10, 30}[pick(3)]
		p.LifespanMultiplier = []float64{0.02, 0.1, 1}[pick(3)]
		p.QueryRate = []float64{0.01, 0.05}[pick(2)]
		p.QueryProbe, p.QueryPong = sels[pick(6)], sels[pick(6)]
		p.PingProbe, p.PingPong = sels[pick(6)], sels[pick(6)]
		p.CacheReplacement = evs[pick(6)]
		p.PongSize = pick(8)
		p.ParallelProbes = 1 + pick(3)
		p.MaxParallelProbes = p.ParallelProbes + pick(4)
		p.NumDesiredResults = 1 + pick(3)
		p.CacheSize = 1 + int(cacheSize)%40
		p.PercentBadPeers = float64(bad % 41)
		p.BadPong = BadPongBehavior(1 + bad/41%3)
		p.PercentSelfishPeers = float64(selfish % 41)
		p.SelfishParallelProbes = 1 + int(selfish/41)
		p.MaxProbesPerSecond = int(flags>>12) % 5 // 0: unlimited
		p.DoBackoff = bit(0)
		p.AdaptiveParallel = bit(1)
		p.AdaptiveParallelWindow = 1
		// bit(2) is unused; the later bits keep their places so the
		// seeds above keep their meaning.
		p.PoisonDetection = bit(3)
		p.PoisonMinSamples = 3
		p.ProbePayments = bit(4)
		p.ResetNumResults = bit(5)
		p.SampleConnectivity = bit(6)
		p.QueriesEnabled = !bit(7)
		if bit(8) {
			p.MaxProbesPerQuery = 5
		}
		if bit(9) {
			p.IntroProb = 1
		}
		if err := p.Validate(); err != nil {
			t.Skip(err)
		}
		requireReference(t, "fuzzed params", p, nil)
	})
}
