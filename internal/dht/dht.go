// Package dht implements a ring-structured lookup baseline with
// randomized replication and caching, after Sarshar & Roychowdhury
// (A Random Structure for Optimum Cache Size DHT P2P Design). Peers
// occupy positions 0..N-1 on a ring; each item hashes to a position
// whose first live successor owns the authoritative record. Records
// are replicated onto BaseReplicas live successors at publish time,
// plus randomly cached copies — one coin flip per provider copy — so
// the replica count of a key grows with its popularity and lookups for
// popular keys finish in far fewer than log N hops. Lookups route
// greedily over power-of-two fingers, fall back to successor walking
// past dead or lossy hops, and cache the record along the return path
// with probability CacheProb.
//
// The engine consumes the shared content substrate, draws from named
// simrng streams so runs are byte-identical per seed, drives the
// internal/eventq queue (one event per hop attempt), and emits
// internal/obs trace events like the GUESS and Gnutella paths. Churn
// is modeled as a static DeadFraction of offline peers.
package dht

import (
	"context"
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// Params configures a DHT-lookup run. The zero value is not valid;
// start from DefaultParams.
type Params struct {
	// NetworkSize is the number of ring positions (peers).
	NetworkSize int
	// BaseReplicas is the number of live successors holding each
	// published record (the owner included).
	BaseReplicas int
	// CacheSize is each peer's replica-cache capacity (0 disables
	// caching); eviction is random replacement.
	CacheSize int
	// CacheProb is the probability that each return-path peer caches
	// the record after a successful lookup.
	CacheProb float64
	// SeedCacheFraction is the publish-time coin: every provider copy
	// of an item seeds a cached replica at a random live peer with
	// this probability, so popular items start with many replicas.
	SeedCacheFraction float64
	// MaxHops is the per-lookup routing budget (hop attempts,
	// including attempts dropped by loss or dead peers).
	MaxHops int
	// HopLatency is the virtual seconds per hop attempt.
	HopLatency float64
	// NumLookups is the number of lookups to run.
	NumLookups int
	// NumDesiredResults is the provider count a record must carry for
	// the lookup to count as satisfied.
	NumDesiredResults int
	// LookupRate is the network-wide lookup arrival rate (lookups per
	// virtual second); inter-arrival times are exponential.
	LookupRate float64
	// DeadFraction is the fraction of peers offline for the whole run.
	DeadFraction float64
	// LossProb is the probability that any single message is lost.
	LossProb float64
	// Seed is the master RNG seed.
	Seed uint64
	// Content configures the shared content substrate.
	Content content.Params
}

// DefaultParams returns a small but representative configuration.
func DefaultParams() Params {
	return Params{
		NetworkSize:       400,
		BaseReplicas:      3,
		CacheSize:         16,
		CacheProb:         0.5,
		SeedCacheFraction: 0.05,
		MaxHops:           32,
		HopLatency:        0.05,
		NumLookups:        500,
		NumDesiredResults: 1,
		LookupRate:        2,
		DeadFraction:      0.1,
		LossProb:          0,
		Seed:              1,
		Content:           content.DefaultParams(),
	}
}

// validFrac reports whether f is a well-formed probability in [0, 1).
func validFrac(f float64) bool {
	return f >= 0 && f < 1 && !math.IsNaN(f)
}

// validProb reports whether f is a well-formed probability in [0, 1].
func validProb(f float64) bool {
	return f >= 0 && f <= 1 && !math.IsNaN(f)
}

// Validate checks parameter sanity, rejecting NaN and infinite floats
// so fuzzed configurations cannot smuggle non-finite arithmetic into
// the event loop.
func (p Params) Validate() error {
	switch {
	case p.NetworkSize < 2:
		return fmt.Errorf("dht: NetworkSize must be >= 2, got %d", p.NetworkSize)
	case p.BaseReplicas < 1 || p.BaseReplicas > p.NetworkSize:
		return fmt.Errorf("dht: BaseReplicas %d out of range for %d peers", p.BaseReplicas, p.NetworkSize)
	case p.CacheSize < 0:
		return fmt.Errorf("dht: CacheSize must be >= 0, got %d", p.CacheSize)
	case !validProb(p.CacheProb):
		return fmt.Errorf("dht: CacheProb must be in [0,1], got %v", p.CacheProb)
	case !validProb(p.SeedCacheFraction):
		return fmt.Errorf("dht: SeedCacheFraction must be in [0,1], got %v", p.SeedCacheFraction)
	case p.MaxHops < 1:
		return fmt.Errorf("dht: MaxHops must be >= 1, got %d", p.MaxHops)
	case !(p.HopLatency > 0) || math.IsInf(p.HopLatency, 0):
		return fmt.Errorf("dht: HopLatency must be positive and finite, got %v", p.HopLatency)
	case p.NumLookups < 1:
		return fmt.Errorf("dht: NumLookups must be >= 1, got %d", p.NumLookups)
	case p.NumDesiredResults < 1:
		return fmt.Errorf("dht: NumDesiredResults must be >= 1, got %d", p.NumDesiredResults)
	case !(p.LookupRate > 0) || math.IsInf(p.LookupRate, 0):
		return fmt.Errorf("dht: LookupRate must be positive and finite, got %v", p.LookupRate)
	case !validFrac(p.DeadFraction):
		return fmt.Errorf("dht: DeadFraction must be in [0,1), got %v", p.DeadFraction)
	case !validFrac(p.LossProb):
		return fmt.Errorf("dht: LossProb must be in [0,1), got %v", p.LossProb)
	}
	return p.Content.Validate()
}

// Results reports one DHT run. Message conservation holds by
// construction: MessagesSent == MessagesDelivered + MessagesDropped.
type Results struct {
	// Lookups partitions into Satisfied + Unsatisfied.
	Lookups     int
	Satisfied   int
	Unsatisfied int

	// Message totals over the whole run (hop attempts plus direct
	// responses).
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64

	// HopsTotal is the sum of hop attempts across lookups;
	// MaxHopsUsed is the largest per-lookup hop count.
	HopsTotal   int64
	MaxHopsUsed int

	// CacheHits counts lookups answered from a replica cache rather
	// than an owner or successor store.
	CacheHits int64

	// ResultsFound sums provider counts returned across lookups.
	ResultsFound int64

	// ResponseTimeSum is the total virtual seconds from lookup start
	// to completion.
	ResponseTimeSum float64

	// PeerLoads counts messages received per peer.
	PeerLoads []int64

	// Interrupted is set when the run was cancelled mid-flight.
	Interrupted bool
}

// Satisfaction returns the satisfied fraction of lookups.
func (r *Results) Satisfaction() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Satisfied) / float64(r.Lookups)
}

// MessagesPerLookup returns the mean messages sent per lookup.
func (r *Results) MessagesPerLookup() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.MessagesSent) / float64(r.Lookups)
}

// AvgHops returns the mean hop attempts per lookup.
func (r *Results) AvgHops() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.HopsTotal) / float64(r.Lookups)
}

// record is one stored or cached replica: the item and its provider
// count across the network.
type record struct {
	item      content.ItemID
	providers int32
}

type evKind uint8

const (
	evLookupStart evKind = iota + 1
	evHop
)

// event is one unit of the loop's work. An evLookupStart carries no
// lookup: startLookup takes one from the free list when the arrival is
// due, so only lookups in flight exist.
type event struct {
	kind evKind
	q    *lookup
}

type lookup struct {
	id      uint64
	item    content.ItemID
	origin  int
	owner   int
	current int
	// skip selects the fallback candidate after dropped attempts: 0
	// routes via the best finger, s > 0 walks current+s linearly.
	skip     int
	hops     int
	messages int64
	start    float64
	path     []int
}

// Engine runs DHT lookups over one sampled ring and content
// assignment. Create with New, run once with Run.
type Engine struct {
	p        Params
	universe *content.Universe
	dead     []bool

	// Authoritative records, written once by publish: item it is held
	// by holders[holderOff[it]:holderOff[it+1]] (the owner, then its
	// live successors) with provider count providers[it], 0 for an item
	// nobody shares. Memory follows the records stored, not NumItems x
	// BaseReplicas.
	providers []int32
	holderOff []int32
	holders   []int32
	// caches[v] is peer v's replica cache, a random-replacement set of
	// at most CacheSize records found by scanning it, so a hit or miss
	// costs O(CacheSize). 16 is the default and the only size a spec or
	// CLI sets; BenchmarkRunCacheSize (200 000 lookups, N=2000) reads
	// 97 ms per run at 16, 122 ms at 64 and 180 ms at 256. One regime
	// until a size in use says otherwise.
	caches [][]record

	rngWorkload *simrng.RNG
	rngCache    *simrng.RNG
	rngNet      *simrng.RNG

	now float64
	// events holds the hop attempts of the lookups in flight; the
	// lookups' arrivals are not queued, Drain merges them in.
	events eventq.Queue[event]

	res   Results
	loads []int64

	observer obs.Observer

	nextLookupID uint64
	freeQ        []*lookup

	ran bool
}

// New validates params, samples libraries from the content substrate,
// and publishes every shared item onto the ring (owner, successor
// replicas, and popularity-proportional seeded caches). The same
// params always yield the same engine state.
func New(params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	root := simrng.New(params.Seed)
	universe, err := content.New(params.Content)
	if err != nil {
		return nil, err
	}
	n := params.NetworkSize
	e := &Engine{
		p:           params,
		universe:    universe,
		rngWorkload: root.Stream("workload"),
		rngCache:    root.Stream("cache"),
		rngNet:      root.Stream("net"),
		caches:      make([][]record, n),
		loads:       make([]int64, n),
	}
	e.dead = make([]bool, n)
	k := int(params.DeadFraction * float64(n))
	if k >= n {
		k = n - 1
	}
	for _, v := range root.Stream("churn").Perm(n)[:k] {
		e.dead[v] = true
	}
	e.publish(root.Stream("content"))
	return e, nil
}

// publish samples live peers' libraries and places every shared item's
// record on the ring: the owner and BaseReplicas-1 further live
// successors store it authoritatively, and each provider copy seeds a
// cached replica at a random live peer with probability
// SeedCacheFraction — the randomized replication that gives popular
// keys their short lookups.
func (e *Engine) publish(rngContent *simrng.RNG) {
	n := e.p.NetworkSize
	providers := make([]int32, e.universe.NumItems())
	e.providers = providers
	e.holderOff = make([]int32, len(providers)+1)
	var lib content.Library
	var items []content.ItemID
	for v := 0; v < n; v++ {
		if e.dead[v] {
			continue
		}
		lib = e.universe.NewLibraryInto(rngContent, e.universe.SampleLibrarySize(rngContent), lib)
		items = lib.AppendItems(items[:0])
		for _, it := range items {
			providers[it]++
		}
	}
	for it, count := range providers {
		e.holderOff[it+1] = e.holderOff[it]
		if count == 0 {
			continue
		}
		item := content.ItemID(it)
		owner := e.firstLive(e.ringPos(item))
		e.holders = append(e.holders, int32(owner))
		succ := owner
		for r := 1; r < e.p.BaseReplicas; r++ {
			succ = e.firstLive((succ + 1) % n)
			if succ == owner {
				break // fewer live peers than replicas
			}
			e.holders = append(e.holders, int32(succ))
		}
		e.holderOff[it+1] = int32(len(e.holders))
		for c := int32(0); c < count; c++ {
			if e.rngCache.Bool(e.p.SeedCacheFraction) {
				e.cacheAt(e.randomLivePeer(e.rngCache), item, count)
			}
		}
	}
}

// ringPos hashes an item to a ring position (SplitMix64 finalizer).
func (e *Engine) ringPos(item content.ItemID) int {
	z := uint64(int64(item)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(e.p.NetworkSize))
}

// firstLive returns the first live peer at or clockwise of pos. At
// least one peer is live by construction.
func (e *Engine) firstLive(pos int) int {
	n := e.p.NetworkSize
	for i := 0; i < n; i++ {
		v := (pos + i) % n
		if !e.dead[v] {
			return v
		}
	}
	return pos // unreachable
}

func (e *Engine) randomLivePeer(r *simrng.RNG) int {
	for {
		v := r.Intn(e.p.NetworkSize)
		if !e.dead[v] {
			return v
		}
	}
}

// stores reports whether v holds item's authoritative record.
func (e *Engine) stores(v int, item content.ItemID) bool {
	if item < 0 {
		return false // NoItem is published nowhere
	}
	for _, h := range e.holders[e.holderOff[item]:e.holderOff[item+1]] {
		if int(h) == v {
			return true
		}
	}
	return false
}

// cacheAt inserts a cached replica at v, evicting a random entry when
// the cache is full. Peers already storing or caching the item keep
// their existing copy.
func (e *Engine) cacheAt(v int, item content.ItemID, providers int32) {
	if e.p.CacheSize == 0 || e.stores(v, item) {
		return
	}
	cache := e.caches[v]
	for i := range cache {
		if cache[i].item == item {
			return
		}
	}
	rec := record{item: item, providers: providers}
	if len(cache) < e.p.CacheSize {
		e.caches[v] = append(cache, rec)
		return
	}
	cache[e.rngCache.Intn(len(cache))] = rec
}

// recordAt returns the record for item held at v, and whether it came
// from the replica cache.
func (e *Engine) recordAt(v int, item content.ItemID) (providers int32, cached, ok bool) {
	if e.stores(v, item) {
		return e.providers[item], false, true
	}
	for _, rec := range e.caches[v] {
		if rec.item == item {
			return rec.providers, true, true
		}
	}
	return 0, false, false
}

// SetObserver attaches a trace observer. Observers receive events but
// never consume randomness or influence control flow, so attaching one
// leaves Results byte-identical.
func (e *Engine) SetObserver(o obs.Observer) { e.observer = o }

// Run executes the configured number of lookups and returns the run's
// Results. It may be called once per Engine.
func (e *Engine) Run(ctx context.Context) (*Results, error) {
	if e.ran {
		return nil, fmt.Errorf("dht: Engine.Run called twice")
	}
	e.ran = true
	// Like core.Engine, a cancelled run returns its partial results
	// with Interrupted set and no error.
	e.res.Interrupted = e.events.Drain(ctx, e.drawArrivals(), event{kind: evLookupStart}, e.step)
	e.finalize()
	return &e.res, nil
}

// drawArrivals draws every lookup's start time, ascending, before the
// first lookup starts: startLookup draws from the same stream, and the
// seeded results fix the order of its draws.
func (e *Engine) drawArrivals() []float64 {
	arrivals := make([]float64, e.p.NumLookups)
	t := 0.0
	for i := range arrivals {
		t += e.rngWorkload.ExpFloat64() / e.p.LookupRate
		arrivals[i] = t
	}
	return arrivals
}

// step handles one event as Drain hands it out.
func (e *Engine) step(when float64, ev event) bool {
	e.now = when
	switch ev.kind {
	case evLookupStart:
		e.startLookup()
	case evHop:
		e.handleHop(ev.q)
	}
	return true
}

func (e *Engine) finalize() {
	e.res.PeerLoads = e.loads
}

func (e *Engine) newLookup() *lookup {
	if n := len(e.freeQ); n > 0 {
		q := e.freeQ[n-1]
		e.freeQ = e.freeQ[:n-1]
		return q
	}
	return &lookup{}
}

func (e *Engine) startLookup() {
	q := e.newLookup()
	e.nextLookupID++
	q.id = e.nextLookupID
	q.start = e.now
	q.hops = 0
	q.messages = 0
	q.skip = 0
	q.path = q.path[:0]
	q.item = e.universe.DrawQuery(e.rngWorkload)
	q.origin = e.randomLivePeer(e.rngWorkload)
	q.current = q.origin
	// NoItem hashes like any key; the lookup routes to the owner of
	// that position and misses there, modeling queries for content
	// that exists nowhere.
	q.owner = e.firstLive(e.ringPos(q.item))
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind: obs.EvQueryIssued, Time: e.now,
			Query: q.id, Peer: uint64(q.origin),
		})
	}
	// Local store or cache may already hold the record: a zero-hop hit.
	if providers, cached, ok := e.recordAt(q.origin, q.item); ok {
		e.finishFound(q, providers, cached)
		return
	}
	if q.origin == q.owner {
		e.finishMiss(q)
		return
	}
	e.events.Push(e.now+e.p.HopLatency, event{kind: evHop, q: q})
}

// ringDist is the clockwise distance from a to b.
func (e *Engine) ringDist(a, b int) int {
	d := b - a
	if d < 0 {
		d += e.p.NetworkSize
	}
	return d
}

// nextCandidate picks the next routing target from q.current: the
// largest power-of-two finger not overshooting the owner, or — after
// q.skip dropped attempts — a linear successor walk. It returns -1
// when every remaining candidate has been tried.
func (e *Engine) nextCandidate(q *lookup) int {
	d := e.ringDist(q.current, q.owner)
	if q.skip == 0 {
		step := 1
		for step*2 <= d {
			step *= 2
		}
		return (q.current + step) % e.p.NetworkSize
	}
	if q.skip > d {
		return -1
	}
	return (q.current + q.skip) % e.p.NetworkSize
}

// handleHop performs one routing hop attempt (one message) and either
// finishes the lookup or schedules the next attempt.
func (e *Engine) handleHop(q *lookup) {
	if q.hops >= e.p.MaxHops {
		e.finishExhausted(q)
		return
	}
	cand := e.nextCandidate(q)
	if cand < 0 {
		e.finishExhausted(q)
		return
	}
	q.hops++
	e.res.HopsTotal++
	delivered := e.send(q, cand)
	if e.observer != nil {
		outcome := obs.OutcomeDead
		if delivered {
			outcome = obs.OutcomeGood
		}
		e.observer.Observe(obs.Event{
			Kind: obs.EvProbe, Time: e.now,
			Query: q.id, Peer: uint64(q.current), Target: uint64(cand),
			Outcome: outcome,
		})
	}
	if !delivered {
		q.skip++
		e.events.Push(e.now+e.p.HopLatency, event{kind: evHop, q: q})
		return
	}
	q.current = cand
	q.skip = 0
	q.path = append(q.path, cand)
	if providers, cached, ok := e.recordAt(cand, q.item); ok {
		e.finishFound(q, providers, cached)
		return
	}
	if cand == q.owner {
		e.finishMiss(q) // authoritative miss: the item exists nowhere
		return
	}
	e.events.Push(e.now+e.p.HopLatency, event{kind: evHop, q: q})
}

// send accounts one message to dst and reports whether it was
// delivered (dst live and the message not lost).
func (e *Engine) send(q *lookup, dst int) bool {
	q.messages++
	e.res.MessagesSent++
	if e.rngNet.Bool(e.p.LossProb) || e.dead[dst] {
		e.res.MessagesDropped++
		return false
	}
	e.res.MessagesDelivered++
	e.loads[dst]++
	return true
}

// finishFound handles a record hit at q.current: a direct response
// travels back to the origin (lost responses fail the lookup), and the
// record is cached along the forward path with probability CacheProb.
func (e *Engine) finishFound(q *lookup, providers int32, cached bool) {
	if cached {
		e.res.CacheHits++
	}
	responseOK := true
	if q.current != q.origin {
		responseOK = e.send(q, q.origin)
	}
	if responseOK {
		for _, v := range q.path {
			if v == q.current {
				continue // the answering peer already holds it
			}
			if e.rngCache.Bool(e.p.CacheProb) {
				e.cacheAt(v, q.item, providers)
			}
		}
		if q.origin != q.current && e.rngCache.Bool(e.p.CacheProb) {
			e.cacheAt(q.origin, q.item, providers)
		}
	}
	satisfied := responseOK && int(providers) >= e.p.NumDesiredResults
	if responseOK {
		e.res.ResultsFound += int64(providers)
	}
	e.finish(q, satisfied, int(providers))
}

func (e *Engine) finishMiss(q *lookup)      { e.finish(q, false, 0) }
func (e *Engine) finishExhausted(q *lookup) { e.finish(q, false, 0) }

func (e *Engine) finish(q *lookup, satisfied bool, results int) {
	e.res.Lookups++
	outcome := obs.OutcomeExhausted
	if satisfied {
		e.res.Satisfied++
		outcome = obs.OutcomeSatisfied
	} else {
		e.res.Unsatisfied++
	}
	if q.hops > e.res.MaxHopsUsed {
		e.res.MaxHopsUsed = q.hops
	}
	e.res.ResponseTimeSum += e.now - q.start
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind: obs.EvQueryDone, Time: e.now,
			Query: q.id, Peer: uint64(q.origin),
			Outcome: outcome, Probes: int(q.messages), Results: results,
		})
	}
	e.freeQ = append(e.freeQ, q)
}

// Run is a convenience wrapper: build an engine and run it.
func Run(ctx context.Context, params Params) (*Results, error) {
	e, err := New(params)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx)
}
