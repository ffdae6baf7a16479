package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/eventq"
	"repro/internal/lifetime"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/workload"
)

// fakeAddrBase splits the positive PeerID range in two: real peer IDs
// count up from 1 through [1, fakeAddrBase), and the fabricated
// (never-live) addresses malicious peers hand out count up through
// [fakeAddrBase, math.MaxInt32). A fabricated address lies beyond the
// peerStore's dense index table, so it resolves to "dead" by the same
// bounds check as any other unknown ID. Neither counter wraps or
// crosses into the other's half: a run that uses up either range stops
// with an error (see Engine.exhausted; DESIGN.md §6 has the budget).
const fakeAddrBase cache.PeerID = 1 << 30

// event kinds dispatched by the simulation loop.
type evKind uint8

const (
	evDeath     evKind = iota + 1 // a peer's lifetime expires
	evPing                        // a peer's periodic cache-maintenance ping
	evBurst                       // a peer's next query burst arrives
	evProbeStep                   // a running query sends its next probe round
	evSample                      // periodic metrics sampling
)

// event is the tagged union stored in the event queue.
type event struct {
	kind evKind
	peer cache.PeerID // evDeath, evPing, evBurst
	q    *query       // evProbeStep
}

// Engine runs one GUESS simulation. Create with New, run with Run.
// An Engine is single-use and not safe for concurrent use; run many
// engines in parallel for sweeps, or chain Renew to recycle one
// engine's storage across sequential runs.
type Engine struct {
	p        Params
	universe *content.Universe
	life     *lifetime.Model
	gen      *workload.Generator

	// Independent random streams so that, e.g., changing the policy's
	// consumption of randomness does not perturb churn.
	rngSeeding  *simrng.RNG // time-zero cache seeding, malicious assignment
	rngChurn    *simrng.RNG // lifetimes, friend choice
	rngContent  *simrng.RNG // libraries, query items
	rngWorkload *simrng.RNG // burst timing and sizes
	rngPolicy   *simrng.RNG // random policy picks, eviction
	rngIntro    *simrng.RNG // introduction coin flips

	now    float64
	end    float64 // when the run stops; schedule queues nothing later
	events eventq.Queue[event]

	// ps is the struct-of-arrays peer state; bad tracks the IDs of live
	// malicious peers (for colluding pongs). IDs rather than slots:
	// slots move on every death, IDs never do.
	ps       peerStore
	bad      []cache.PeerID
	nextID   cache.PeerID
	nextFake cache.PeerID

	lieFiles int32 // NumFiles malicious peers advertise
	lieRes   int32 // NumRes malicious peers put in fabricated entries

	res   Results
	loads []int64

	inFlightCounted int

	// running sums for cache-health samples
	sumHeld, sumLive, sumLiveFrac, sumGood float64
	sumWCC                                 float64

	// trace state
	traceHeader bool
	traceErr    error

	// exhausted is set when nextID or nextFake runs out of addresses; the
	// event loop stops on it and Run returns it instead of Results.
	exhausted error

	// Observability (both optional; see SetObserver/SetProgress).
	// observer receives trace events, progress gets one line per
	// sample. Neither consumes randomness or alters control flow, so
	// attaching them leaves a seeded run byte-identical; with both nil
	// the instrumentation is a handful of predictable branches
	// (BenchmarkSingleRun pins the cost). Metrics are not counted here:
	// Results.Record derives them from a finished run.
	observer    obs.Observer
	progress    io.Writer
	nextQueryID uint64

	// Reusable hot-path scratch. The simulation's steady state is one
	// pong build per ping/probe, one query start per burst slot, and one
	// connectivity sample per SampleInterval; each of these used to
	// allocate. The scratch below is draw-order-neutral by construction
	// (buffer reuse only, never a change in how randomness is consumed),
	// which the golden-trace test locks in.
	polScratch policy.Scratch // selection scratch for every PickN
	pongBuf    []cache.Entry  // pong under construction; consumed before the next build
	badBuf     []cache.PeerID // colluder candidates for BadPongBad pongs
	wcc        overlay.WCCScratch
	traceBuf   []byte // one CSV row, rebuilt in place per sample

	// Free lists recycling the per-churn and per-query allocations:
	// dead peers donate their link cache, library storage and
	// poison/back-off maps to the next birth, completed queries donate
	// their selector and visited set to the next query.
	freeQueries    []*query
	freeCaches     []cache.LinkCache
	freeLibs       []content.Library
	freeProvenance []map[cache.PeerID]cache.PeerID
	freePongStats  []map[cache.PeerID]supplierRecord
	freeBlacklist  []map[cache.PeerID]bool
	freeSuppressed []map[cache.PeerID]float64

	ran bool
}

// New validates params and builds an engine ready to Run, with every
// arena sized once from Params.NetworkSize.
func New(params Params) (*Engine, error) {
	return newEngine(params, nil)
}

// Renew builds an engine for params that inherits the receiver's
// storage — peer arrays, link caches, libraries, event queue, scratch
// and free lists — instead of reallocating them, so a worker sweeping
// many configurations allocates its arenas once. The receiver must
// have finished Run and is unusable afterwards. Recycling is
// draw-order-neutral: a Renewed engine's run is byte-identical to a
// fresh engine's (TestRenewMatchesFresh pins this), because every
// recycled structure is either fully overwritten or cleared, and none
// of the cleared maps is ever iterated.
func (e *Engine) Renew(params Params) (*Engine, error) {
	if !e.ran {
		return nil, fmt.Errorf("core: Renew before Run")
	}
	return newEngine(params, e)
}

func newEngine(params Params, recycle *Engine) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	universe, err := content.New(params.Content)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	life, err := lifetime.New(params.LifespanMultiplier)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var gen *workload.Generator
	if params.QueriesEnabled {
		gen, err = workload.New(params.QueryRate)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	root := simrng.New(params.Seed)
	e := &Engine{
		p:           params,
		universe:    universe,
		life:        life,
		gen:         gen,
		end:         params.WarmupTime + params.MeasureTime,
		rngSeeding:  root.Stream("seeding"),
		rngChurn:    root.Stream("churn"),
		rngContent:  root.Stream("content"),
		rngWorkload: root.Stream("workload"),
		rngPolicy:   root.Stream("policy"),
		rngIntro:    root.Stream("intro"),
		nextID:      1,
		nextFake:    fakeAddrBase,
		lieFiles:    int32(universe.MaxLibrary()),
		lieRes:      1000,
	}
	if recycle != nil {
		e.adoptStorage(recycle)
	}
	e.ps.init(params.NetworkSize)
	return e, nil
}

// adoptStorage moves a finished engine's recyclable storage into e:
// the peer arrays wholesale, the live population's caches, libraries
// and state maps into the free lists, and the reusable scratch. Pools
// whose element shape depends on parameters (link caches are
// capacity-bound) are dropped on mismatch rather than reused.
func (e *Engine) adoptStorage(old *Engine) {
	// Harvest the final population before taking the arrays.
	for i := 0; i < old.ps.len(); i++ {
		old.recycleSlotStorage(i)
	}
	e.ps = old.ps
	old.events.Reset()
	e.events = old.events
	e.bad = old.bad[:0]
	e.polScratch = old.polScratch
	e.pongBuf = old.pongBuf[:0]
	e.badBuf = old.badBuf[:0]
	e.wcc = old.wcc
	e.traceBuf = old.traceBuf[:0]
	e.freeQueries = old.freeQueries
	e.freeLibs = old.freeLibs
	e.freeProvenance = old.freeProvenance
	e.freePongStats = old.freePongStats
	e.freeBlacklist = old.freeBlacklist
	e.freeSuppressed = old.freeSuppressed
	if len(old.freeCaches) > 0 && old.freeCaches[0].Cap() == e.p.CacheSize {
		e.freeCaches = old.freeCaches
	}
}

// recycleSlotStorage donates slot i's link cache, library and state
// maps, cleared, to the free lists: the one place peer storage enters
// them, for a death mid-run and for the final population at Renew.
func (e *Engine) recycleSlotStorage(i int) {
	link := e.ps.link[i]
	if link.Cap() > 0 {
		link.Clear()
		e.freeCaches = append(e.freeCaches, link)
		e.ps.link[i] = cache.LinkCache{}
	}
	if e.ps.lib[i].Size() > 0 {
		e.freeLibs = append(e.freeLibs, e.ps.lib[i])
		e.ps.lib[i] = content.Library{}
	}
	if e.ps.rare == nil {
		return
	}
	r := &e.ps.rare[i]
	if r.provenance != nil {
		clear(r.provenance)
		e.freeProvenance = append(e.freeProvenance, r.provenance)
	}
	if r.pongStats != nil {
		clear(r.pongStats)
		e.freePongStats = append(e.freePongStats, r.pongStats)
	}
	if r.blacklist != nil {
		clear(r.blacklist)
		e.freeBlacklist = append(e.freeBlacklist, r.blacklist)
	}
	if r.suppressed != nil {
		clear(r.suppressed)
		e.freeSuppressed = append(e.freeSuppressed, r.suppressed)
	}
	*r = rareState{}
}

// pop takes the most recently donated element off a free list. ok is
// false when the list is empty and the caller must allocate.
func pop[T any](free *[]T) (v T, ok bool) {
	s := *free
	n := len(s)
	if n == 0 {
		return v, false
	}
	v = s[n-1]
	var zero T
	s[n-1] = zero // the list's tail must not pin donated storage
	*free = s[:n-1]
	return v, true
}

// schedule queues ev for time t, unless t lies past the end of the run:
// Run's loop stops in front of such an event, so it could never fire,
// and dropping it here keeps the relative (time, seq) order of every
// event that can. Most deaths, most bursts at a low query rate and the
// last step of every query still in flight are of that kind; unqueued,
// they neither deepen the heap nor keep a finished query's candidates
// reachable from it. The filter is the loop's own: an event at exactly
// end is queued and fires.
//
// A probe step goes to the queue's FIFO: it is always scheduled at
// now + ProbeSpacing, and now never decreases, so probe steps arrive in
// time order and need no heap sift. They are about 95% of the events a
// paper-default run schedules. Every other kind keeps the heap.
func (e *Engine) schedule(t float64, ev event) {
	if t > e.end {
		return
	}
	if ev.kind == evProbeStep {
		e.events.PushInOrder(t, ev)
		return
	}
	e.events.Push(t, ev)
}

// SetObserver attaches an observer receiving lifecycle and query trace
// events. Must be called before Run. Observers attached to engines run
// in parallel (sweeps) must be safe for concurrent use.
func (e *Engine) SetObserver(o obs.Observer) { e.observer = o }

// SetProgress attaches a writer receiving one short status line per
// sample interval. Must be called before Run. Write errors are
// ignored (progress is best-effort, unlike Params.Trace).
func (e *Engine) SetProgress(w io.Writer) { e.progress = w }

// Run executes the simulation and returns its measurements. It can be
// called once. A nil ctx is treated as context.Background. When ctx is
// cancelled mid-run the loop stops at the next event-batch boundary and
// returns the partial Results accumulated so far with Interrupted set
// (and a nil error: partial measurements are still measurements).
func (e *Engine) Run(ctx context.Context) (*Results, error) {
	if e.ran {
		return nil, fmt.Errorf("core: engine already ran")
	}
	e.ran = true

	e.bootstrap()
	e.schedule(e.p.WarmupTime, event{kind: evSample})

	var unknown error
	if e.exhausted == nil {
		e.res.Interrupted = e.events.Drain(ctx, nil, event{}, func(t float64, ev event) bool {
			if t > e.end {
				return false
			}
			e.now = t
			switch ev.kind {
			case evDeath:
				e.handleDeath(ev.peer)
			case evPing:
				e.handlePing(ev.peer)
			case evBurst:
				e.handleBurst(ev.peer)
			case evProbeStep:
				e.handleProbeStep(ev.q)
			case evSample:
				e.handleSample()
			default:
				unknown = fmt.Errorf("core: unknown event kind %d", ev.kind)
				return false
			}
			return e.exhausted == nil
		})
	}
	if unknown != nil {
		return nil, unknown
	}
	if e.exhausted != nil {
		return nil, fmt.Errorf("core: %w", e.exhausted)
	}
	e.finalize()
	if e.traceErr != nil {
		return nil, fmt.Errorf("core: trace writer: %w", e.traceErr)
	}
	return &e.res, nil
}

// bootstrap creates the initial population at time zero.
func (e *Engine) bootstrap() {
	n := e.p.NetworkSize
	numBad := e.p.numBadPeers()
	numSelfish := e.p.numSelfishPeers()
	// Uniformly choose disjoint malicious and selfish subsets.
	badSlot := make([]bool, n)
	selfishSlot := make([]bool, n)
	perm := e.rngSeeding.Perm(n)
	for i := 0; i < numBad; i++ {
		badSlot[perm[i]] = true
	}
	for i := numBad; i < numBad+numSelfish; i++ {
		selfishSlot[perm[i]] = true
	}
	for i := 0; i < n; i++ {
		if _, ok := e.spawnPeer(badSlot[i], selfishSlot[i]); !ok {
			return
		}
	}
	// Seed link caches with live peers, as in the paper's time-zero
	// setup (entries carry the target's true file count).
	seed := e.p.seedSize()
	for p := 0; p < e.ps.len(); p++ {
		for _, j := range e.samplePeers(e.rngSeeding, seed, e.ps.id[p]) {
			e.ps.link[p].Add(cache.Entry{
				Addr:     e.ps.id[j],
				TS:       0,
				NumFiles: e.ps.advertisedFiles[j],
			})
		}
	}
}

// samplePeers draws up to k distinct slot indices, excluding the peer
// with the given id, via Floyd's sampling. The returned slice aliases
// the policy scratch and is valid until the next selection call.
func (e *Engine) samplePeers(r *simrng.RNG, k int, exclude cache.PeerID) []int {
	n := e.ps.len()
	if k > n {
		k = n
	}
	idx := e.polScratch.SampleIndices(r, n, k)
	out := idx[:0]
	for _, j := range idx {
		if e.ps.id[j] != exclude {
			out = append(out, j)
		}
	}
	return out
}

// spawnPeer creates a peer at the current time, registers it in the
// next free slot, and schedules its lifecycle events. Cache seeding is
// the caller's job. Returns the new peer's slot, or false with
// e.exhausted set when every real ID has been assigned.
func (e *Engine) spawnPeer(malicious, selfish bool) (int, bool) {
	if e.nextID >= fakeAddrBase {
		e.exhausted = fmt.Errorf("peer IDs exhausted: every ID in [1, %d) has been assigned", fakeAddrBase)
		return -1, false
	}
	id := e.nextID
	e.nextID++
	libSize := e.universe.SampleLibrarySize(e.rngContent)
	// An empty library needs no storage; leave the free list for a peer
	// that shares something.
	var recycled content.Library
	if libSize > 0 {
		recycled, _ = pop(&e.freeLibs)
	}
	lib := e.universe.NewLibraryInto(e.rngContent, libSize, recycled)
	link, ok := pop(&e.freeCaches)
	if !ok {
		link = *cache.NewLinkCache(e.p.CacheSize)
	}
	advertised := int32(lib.Size())
	if malicious {
		advertised = e.lieFiles
	}
	deathAt := e.now + e.life.Sample(e.rngChurn)

	slot := e.ps.grow()
	e.ps.id[slot] = id
	e.ps.advertisedFiles[slot] = advertised
	e.ps.malicious[slot] = malicious
	e.ps.selfish[slot] = selfish
	e.ps.lib[slot] = lib
	e.ps.link[slot] = link
	e.ps.winStart[slot] = -1
	e.ps.byID = append(e.ps.byID, int32(slot))

	if malicious {
		e.bad = append(e.bad, id)
	}
	e.res.Births++
	if e.observer != nil {
		e.observer.Observe(obs.Event{Kind: obs.EvPeerBirth, Time: e.now, Peer: uint64(id)})
	}

	e.schedule(deathAt, event{kind: evDeath, peer: id})
	e.schedule(e.now+e.rngChurn.Float64()*e.p.PingInterval, event{kind: evPing, peer: id})
	if e.p.QueriesEnabled && !malicious {
		delay, _ := e.gen.NextBurst(e.rngWorkload)
		e.schedule(e.now+delay, event{kind: evBurst, peer: id})
	}
	return slot, true
}

// handleDeath removes a peer and spawns its replacement, keeping the
// live population (and the malicious fraction) constant.
func (e *Engine) handleDeath(id cache.PeerID) {
	slot := e.ps.slotOf(id)
	if slot < 0 {
		return
	}
	// Capture the dying peer's fields: the swap-remove below overwrites
	// its slot with the last slot's peer.
	malicious := e.ps.malicious[slot]
	selfish := e.ps.selfish[slot]
	probesReceived := e.ps.probesReceived[slot]

	// Once unlinked nothing reads the peer's cache, library or state
	// maps again (see the Entries aliasing audit in cache.LinkCache), so
	// later births may have them.
	e.ps.byID[id] = -1
	e.recycleSlotStorage(slot)
	e.ps.swapRemove(slot)
	if malicious {
		for i, b := range e.bad {
			if b == id {
				e.bad[i] = e.bad[len(e.bad)-1]
				e.bad = e.bad[:len(e.bad)-1]
				break
			}
		}
	}
	e.res.Deaths++
	if e.observer != nil {
		e.observer.Observe(obs.Event{Kind: obs.EvPeerDeath, Time: e.now, Peer: uint64(id)})
	}
	if e.now >= e.p.WarmupTime {
		e.loads = append(e.loads, probesReceived)
	}

	// Birth of the replacement, seeded by the random-friend policy:
	// the newborn copies the link cache of one live "friend" and also
	// remembers the friend itself.
	np, ok := e.spawnPeer(malicious, selfish)
	if !ok {
		return
	}
	if e.ps.len() > 1 {
		friend := np
		for friend == np {
			friend = e.rngChurn.Intn(e.ps.len())
		}
		npID := e.ps.id[np]
		for _, entry := range e.ps.link[friend].Entries() {
			if entry.Addr == npID {
				continue
			}
			e.ps.link[np].Add(entry)
		}
		e.ps.link[np].Add(cache.Entry{
			Addr:     e.ps.id[friend],
			TS:       e.now,
			NumFiles: e.ps.advertisedFiles[friend],
			Direct:   true,
		})
	}
}

// handlePing performs one cache-maintenance ping for the peer and
// reschedules the next one.
func (e *Engine) handlePing(id cache.PeerID) {
	p := e.ps.slotOf(id)
	if p < 0 {
		return // peer died; its replacement has its own ping timer
	}
	e.schedule(e.now+e.p.PingInterval, event{kind: evPing, peer: id})

	entries := e.ps.link[p].Entries()
	i := policy.Pick(e.rngPolicy, e.p.PingProbe, entries)
	if i < 0 {
		return
	}
	addr := entries[i].Addr
	target := e.ps.slotOf(addr)
	measuring := e.now >= e.p.WarmupTime
	if target < 0 {
		e.ps.link[p].Remove(addr)
		e.blameDeadAddress(p, addr)
		if measuring {
			e.res.Pings++
			e.res.DeadPings++
		}
		if e.observer != nil {
			e.observer.Observe(obs.Event{Kind: obs.EvPing, Time: e.now,
				Peer: uint64(id), Target: uint64(addr), Outcome: obs.OutcomeDead})
		}
		return
	}
	if measuring {
		e.res.Pings++
	}
	if e.observer != nil {
		e.observer.Observe(obs.Event{Kind: obs.EvPing, Time: e.now,
			Peer: uint64(id), Target: uint64(addr), Outcome: obs.OutcomeGood})
	}
	// Both sides record the interaction.
	e.ps.link[p].Touch(addr, e.now)
	e.ps.link[target].Touch(id, e.now)
	e.maybeIntroduce(target, p)
	e.acceptPong(p, target, e.buildPong(target, e.p.PingPong))
}

// handleBurst starts a burst of queries for the peer and schedules its
// next burst.
func (e *Engine) handleBurst(id cache.PeerID) {
	p := e.ps.slotOf(id)
	if p < 0 {
		return
	}
	delay, size := e.gen.NextBurst(e.rngWorkload)
	e.schedule(e.now+delay, event{kind: evBurst, peer: id})
	e.startQuery(p, size-1)
}

// overlaySample is what one pass over the live population's link
// caches measures.
type overlaySample struct {
	held, live float64 // entries, and entries pointing at live peers, summed over peers
	fracSum    float64 // live share of a peer's entries, summed over peers that hold any
	fracPeers  int
	goodSum    float64 // entries pointing at live honest peers, summed over honest peers
	goodPeers  int
	largestWCC int // with connectivity only
}

// scanOverlay is the engine's one O(NetworkSize) scan: it counts every
// peer's live and good cache entries and, with connectivity set, unions
// the conceptual overlay's edges on the way: an entry pointing at a dead
// peer or at the peer itself adds no edge.
//
// The union-find scratch is reset over peer IDs, dead and never-born
// ones dropped, so the load that answers "is this address live" is also
// the first step of the find; fabricated addresses lie beyond it like
// any other unknown ID. The pass adds up its floating-point sums in
// slot order, so they are the same operation sequence, bit for bit, as
// the reference's.
func (e *Engine) scanOverlay(connectivity bool) overlaySample {
	byID := e.ps.byID
	e.wcc.Reset(len(byID))
	for id, slot := range byID {
		if slot < 0 {
			e.wcc.Drop(id)
		}
	}
	// With no malicious peer alive every live entry is a good one, and
	// the target's slot is never needed.
	allGood := len(e.bad) == 0
	// One compare sorts out the fabricated and the not yet born: no
	// cached address is negative, since neither ID counter ever wraps.
	limit := cache.PeerID(len(byID))
	var s overlaySample
	for i, self := range e.ps.id {
		entries := e.ps.link[i].Entries()
		live, good := 0, 0
		for k := range entries {
			addr := entries[k].Addr
			if addr >= limit || !e.wcc.Has(int(addr)) {
				continue
			}
			live++
			if !allGood && !e.ps.malicious[byID[addr]] {
				good++
			}
			if connectivity && addr != self {
				e.wcc.Union(int(self), int(addr))
			}
		}
		if allGood {
			good = live
		}
		s.held += float64(len(entries))
		s.live += float64(live)
		if len(entries) > 0 {
			s.fracSum += float64(live) / float64(len(entries))
			s.fracPeers++
		}
		if !e.ps.malicious[i] {
			s.goodSum += float64(good)
			s.goodPeers++
		}
	}
	if connectivity {
		s.largestWCC = e.wcc.Largest()
	}
	return s
}

// handleSample takes a cache-health (and optionally connectivity)
// sample and reschedules itself.
func (e *Engine) handleSample() {
	e.schedule(e.now+e.p.SampleInterval, event{kind: evSample})
	s := e.scanOverlay(e.p.SampleConnectivity)
	nf := float64(e.ps.len())
	if nf > 0 {
		e.sumHeld += s.held / nf
		e.sumLive += s.live / nf
	}
	if s.fracPeers > 0 {
		e.sumLiveFrac += s.fracSum / float64(s.fracPeers)
	}
	if s.goodPeers > 0 {
		e.sumGood += s.goodSum / float64(s.goodPeers)
	}
	e.res.CacheSamples++
	if e.progress != nil {
		fmt.Fprintf(e.progress, "t=%.0f/%.0f queries=%d satisfied=%d births=%d deaths=%d\n",
			e.now, e.end, e.res.Queries, e.res.Satisfied, e.res.Births, e.res.Deaths)
	}

	if e.p.SampleConnectivity {
		e.sumWCC += float64(s.largestWCC)
		e.res.ConnectivityRuns++
	}

	if e.p.Trace != nil && e.traceErr == nil {
		if !e.traceHeader {
			e.traceHeader = true
			_, e.traceErr = e.p.Trace.Write([]byte(
				"time,births,deaths,queries,satisfied,probes,avgHeld,avgLive\n"))
		}
		if e.traceErr == nil {
			var avgHeld, avgLive float64
			if nf > 0 {
				avgHeld = s.held / nf
				avgLive = s.live / nf
			}
			e.traceBuf = e.appendTraceRow(e.traceBuf[:0], avgHeld, avgLive)
			_, e.traceErr = e.p.Trace.Write(e.traceBuf)
		}
	}
}

// appendTraceRow assembles one CSV trace row into b. It is strconv in
// a reusable buffer, byte-for-byte what the former
// Fprintf("%.0f,%d,%d,%d,%d,%d,%.2f,%.2f\n") produced (fmt's float
// verbs are strconv.AppendFloat underneath), so full-scale run traces
// cost one Write and no garbage per sample. TestAppendTraceRowMatchesFmt
// pins the equivalence.
func (e *Engine) appendTraceRow(b []byte, avgHeld, avgLive float64) []byte {
	b = strconv.AppendFloat(b, e.now, 'f', 0, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.res.Births), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.res.Deaths), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.res.Queries), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.res.Satisfied), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, e.res.ProbesTotal, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, avgHeld, 'f', 2, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, avgLive, 'f', 2, 64)
	b = append(b, '\n')
	return b
}

// maybeIntroduce applies the introduction protocol: host adds the
// initiator of an interaction to its cache with probability IntroProb.
func (e *Engine) maybeIntroduce(host, initiator int) {
	if !e.rngIntro.Bool(e.p.IntroProb) {
		return
	}
	e.insertEntry(host, cache.Entry{
		Addr:     e.ps.id[initiator],
		TS:       e.now,
		NumFiles: e.ps.advertisedFiles[initiator],
		Direct:   true,
	})
}

// insertEntry runs the receiver's cache-replacement policy.
func (e *Engine) insertEntry(receiver int, entry cache.Entry) {
	policy.Insert(e.rngPolicy, e.p.CacheReplacement, &e.ps.link[receiver], entry)
}

// buildPong constructs the host's pong under the given selection
// policy. Malicious hosts return corrupt pongs per BadPongBehavior.
//
// The returned slice is the engine's reusable pong buffer: it is valid
// only until the next buildPong call, and both consumers (acceptPong
// and probeOne's pong loop) copy entries out before any further pong is
// built.
func (e *Engine) buildPong(host int, sel policy.Selection) []cache.Entry {
	if e.p.PongSize <= 0 {
		return nil
	}
	if e.ps.malicious[host] {
		return e.buildBadPong(host)
	}
	entries := e.ps.link[host].Entries()
	out := e.pongBuf[:0]
	for _, j := range e.polScratch.PickN(e.rngPolicy, sel, entries, e.p.PongSize) {
		out = append(out, entries[j])
	}
	e.pongBuf = out
	return out
}

// buildBadPong fabricates a poisoned pong (into the shared pong
// buffer, like buildPong).
func (e *Engine) buildBadPong(host int) []cache.Entry {
	out := e.pongBuf[:0]
	defer func() { e.pongBuf = out }()
	switch e.p.BadPong {
	case BadPongBad:
		// Colluders advertise each other with maximal credentials.
		hostID := e.ps.id[host]
		candidates := e.badBuf[:0]
		for _, b := range e.bad {
			if b != hostID {
				candidates = append(candidates, b)
			}
		}
		e.badBuf = candidates
		if len(candidates) == 0 {
			out = e.fabricateDead(out)
			return out
		}
		for i := 0; i < e.p.PongSize; i++ {
			b := candidates[e.rngPolicy.Intn(len(candidates))]
			out = append(out, cache.Entry{
				Addr:     b,
				TS:       e.now,
				NumFiles: e.lieFiles,
				NumRes:   e.lieRes,
			})
		}
		return out
	case BadPongGood:
		entries := e.ps.link[host].Entries()
		for _, j := range e.polScratch.PickN(e.rngPolicy, policy.SelRandom, entries, e.p.PongSize) {
			out = append(out, entries[j])
		}
		return out
	default: // BadPongDead
		out = e.fabricateDead(out)
		return out
	}
}

// fabricateDead fills a pong with fresh never-live addresses
// advertising a maximal file count (the bait that defeats MFS). Their
// NumRes is zero: a result count is per-querier experience, and a
// plausible fabricated stranger has none — which is why the paper
// finds MR robust against this attack (the fakes never outrank
// productive peers) while MFS collapses. Colluding attacks
// (BadPongBad) do lie about NumRes; see buildBadPong. The pong is cut
// short, with e.exhausted set, when the fabricated range runs out.
func (e *Engine) fabricateDead(out []cache.Entry) []cache.Entry {
	for i := 0; i < e.p.PongSize; i++ {
		if e.nextFake == math.MaxInt32 {
			e.exhausted = fmt.Errorf("fabricated addresses exhausted: every address in [%d, %d) has been handed out",
				fakeAddrBase, math.MaxInt32)
			return out
		}
		out = append(out, cache.Entry{
			Addr:     e.nextFake,
			TS:       e.now,
			NumFiles: e.lieFiles,
		})
		e.nextFake++
	}
	return out
}

// acceptPong runs the receiver's cache-replacement policy over pong
// entries supplied by source. Per the specification, inherited fields
// are not rewritten; the Direct flag is cleared because the NumRes
// value is third-party experience, and ResetNumResults optionally
// zeroes it. Pongs from blacklisted suppliers are ignored entirely.
func (e *Engine) acceptPong(receiver, source int, pong []cache.Entry) {
	sourceID := e.ps.id[source]
	if e.pongSourceBlocked(receiver, sourceID) {
		return
	}
	receiverID := e.ps.id[receiver]
	if e.observer != nil {
		e.observer.Observe(obs.Event{Kind: obs.EvPong, Time: e.now,
			Peer: uint64(receiverID), Target: uint64(sourceID), Entries: len(pong)})
	}
	for _, entry := range pong {
		if entry.Addr == receiverID {
			continue
		}
		entry.Direct = false
		if e.p.ResetNumResults {
			entry.NumRes = 0
		}
		e.recordSupplied(receiver, sourceID, entry.Addr)
		e.insertEntry(receiver, entry)
	}
}

// finalize closes out per-peer load accounting and normalizes sampled
// averages.
func (e *Engine) finalize() {
	for i := 0; i < e.ps.len(); i++ {
		e.loads = append(e.loads, e.ps.probesReceived[i])
	}
	e.res.PeerLoads = e.loads
	e.res.Aborted += e.inFlightCounted

	if s := float64(e.res.CacheSamples); s > 0 {
		e.res.AvgCacheEntries = e.sumHeld / s
		e.res.AvgLiveEntries = e.sumLive / s
		e.res.AvgLiveFraction = e.sumLiveFrac / s
		e.res.AvgGoodEntries = e.sumGood / s
	}
	if e.res.ConnectivityRuns > 0 {
		e.res.AvgLargestWCC = e.sumWCC / float64(e.res.ConnectivityRuns)
		e.res.FinalLargestWCC = e.scanOverlay(true).largestWCC
	}
}
