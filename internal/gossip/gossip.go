// Package gossip implements gossip-based search over the simulated
// overlay: queries spread as rumors in synchronous rounds, following
// the push / pull / push-pull taxonomy of Jaho et al. (Gossip-based
// Search in Multipeer Communication Networks). Each round, informed
// peers push the rumor to Fanout random neighbors (push modes) and
// uninformed peers poll Fanout random neighbors for it (pull modes,
// modeling periodic anti-entropy). A query stops when it has gathered
// NumDesiredResults results (hit-count stopping rule), when it has
// spent MaxRounds rounds (budget stopping rule), or when every live
// peer is informed.
//
// The engine consumes the shared content substrate, draws from named
// simrng streams so runs are byte-identical per seed, drives the
// internal/eventq queue, and emits internal/obs trace events exactly
// like the GUESS and Gnutella paths. Churn is modeled as a static
// DeadFraction of peers that never answer: gossip rounds are fast
// relative to session lifetimes, so within one query the dead set is
// effectively frozen.
package gossip

import (
	"context"
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/eventq"
	"repro/internal/gnutella"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// Mode selects the rumor-spreading mechanism.
type Mode int

const (
	// ModePush: informed peers push the rumor to Fanout random
	// neighbors each round.
	ModePush Mode = iota + 1
	// ModePull: uninformed peers poll Fanout random neighbors each
	// round and receive the rumor from informed ones.
	ModePull
	// ModePushPull combines both mechanisms in every round.
	ModePushPull
)

var modeNames = map[Mode]string{
	ModePush:     "push",
	ModePull:     "pull",
	ModePushPull: "pushpull",
}

// String returns the mode name ("push", "pull", "pushpull").
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Params configures a gossip-search run. The zero value is not valid;
// start from DefaultParams.
type Params struct {
	// NetworkSize is the number of peers in the overlay.
	NetworkSize int
	// AvgDegree is the overlay's average degree (ring plus random
	// edges, as in the Gnutella topology).
	AvgDegree int
	// Fanout is the number of random neighbors each participating peer
	// contacts per round.
	Fanout int
	// MaxRounds is the per-query round budget.
	MaxRounds int
	// RoundInterval is the virtual seconds between rounds.
	RoundInterval float64
	// Mode selects push, pull, or push-pull spreading.
	Mode Mode
	// NumQueries is the number of queries to run.
	NumQueries int
	// NumDesiredResults is the hit-count stopping rule: a query stops
	// as soon as it has accumulated this many results.
	NumDesiredResults int
	// QueryRate is the network-wide query arrival rate (queries per
	// virtual second); inter-arrival times are exponential.
	QueryRate float64
	// DeadFraction is the fraction of peers that are offline for the
	// whole run (the static-churn stand-in; see the package comment).
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
		AvgDegree:         8,
		Fanout:            2,
		MaxRounds:         12,
		RoundInterval:     1,
		Mode:              ModePushPull,
		NumQueries:        500,
		NumDesiredResults: 1,
		QueryRate:         2,
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

// Validate checks parameter sanity, rejecting NaN and infinite floats
// so fuzzed configurations cannot smuggle non-finite arithmetic into
// the event loop.
func (p Params) Validate() error {
	switch {
	case p.NetworkSize < 2:
		return fmt.Errorf("gossip: NetworkSize must be >= 2, got %d", p.NetworkSize)
	case p.AvgDegree < 2 || p.AvgDegree >= p.NetworkSize:
		return fmt.Errorf("gossip: AvgDegree %d out of range for %d peers", p.AvgDegree, p.NetworkSize)
	case p.Fanout < 1:
		return fmt.Errorf("gossip: Fanout must be >= 1, got %d", p.Fanout)
	case p.MaxRounds < 1:
		return fmt.Errorf("gossip: MaxRounds must be >= 1, got %d", p.MaxRounds)
	case !(p.RoundInterval > 0) || math.IsInf(p.RoundInterval, 0):
		return fmt.Errorf("gossip: RoundInterval must be positive and finite, got %v", p.RoundInterval)
	case p.Mode != ModePush && p.Mode != ModePull && p.Mode != ModePushPull:
		return fmt.Errorf("gossip: invalid Mode %d", int(p.Mode))
	case p.NumQueries < 1:
		return fmt.Errorf("gossip: NumQueries must be >= 1, got %d", p.NumQueries)
	case p.NumDesiredResults < 1:
		return fmt.Errorf("gossip: NumDesiredResults must be >= 1, got %d", p.NumDesiredResults)
	case !(p.QueryRate > 0) || math.IsInf(p.QueryRate, 0):
		return fmt.Errorf("gossip: QueryRate must be positive and finite, got %v", p.QueryRate)
	case !validFrac(p.DeadFraction):
		return fmt.Errorf("gossip: DeadFraction must be in [0,1), got %v", p.DeadFraction)
	case !validFrac(p.LossProb):
		return fmt.Errorf("gossip: LossProb must be in [0,1), got %v", p.LossProb)
	}
	return p.Content.Validate()
}

// Results reports one gossip run. Message conservation holds by
// construction: MessagesSent == MessagesDelivered + MessagesDropped.
type Results struct {
	// Queries partitions into Satisfied + Unsatisfied.
	Queries     int
	Satisfied   int
	Unsatisfied int

	// Message totals over the whole run.
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64

	// RoundsTotal is the sum of rounds used across queries;
	// MaxRoundsUsed is the largest per-query round count.
	RoundsTotal   int64
	MaxRoundsUsed int

	// PeersInformed sums the rumor's reach (informed peers, origin
	// included) across queries; ResultsFound sums results gathered.
	PeersInformed int64
	ResultsFound  int64

	// ResponseTimeSum is the total virtual seconds from query start to
	// completion.
	ResponseTimeSum float64

	// PeerLoads counts messages received per peer (load-fairness
	// input; dead peers accumulate none).
	PeerLoads []int64

	// Interrupted is set when the run was cancelled mid-flight.
	Interrupted bool
}

// Satisfaction returns the satisfied fraction of queries.
func (r *Results) Satisfaction() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Satisfied) / float64(r.Queries)
}

// MessagesPerQuery returns the mean messages sent per query.
func (r *Results) MessagesPerQuery() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.MessagesSent) / float64(r.Queries)
}

// AvgRounds returns the mean rounds used per query.
func (r *Results) AvgRounds() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.RoundsTotal) / float64(r.Queries)
}

// AvgReach returns the mean number of peers informed per query.
func (r *Results) AvgReach() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.PeersInformed) / float64(r.Queries)
}

type evKind uint8

const (
	evQueryStart evKind = iota + 1
	evRound
)

// event is one unit of the loop's work. An evQueryStart carries no
// query: startQuery takes one from the free list when the arrival is
// due, so only queries in flight hold an informed array.
type event struct {
	kind evKind
	q    *query
}

type query struct {
	id       uint64
	item     content.ItemID
	origin   int
	start    float64
	round    int
	messages int64
	results  int
	// informed flags peers holding the rumor; spreaders lists them in
	// infection order (informed peers are always live).
	informed  []bool
	spreaders []int
}

// Engine runs gossip queries over one sampled overlay and content
// assignment. Create with New, run once with Run.
type Engine struct {
	p        Params
	universe *content.Universe
	topo     *gnutella.Topology
	libs     []content.Library
	dead     []bool
	live     int

	rngWorkload *simrng.RNG
	rngSpread   *simrng.RNG
	rngNet      *simrng.RNG

	now float64
	// events holds the next round of each query in flight; the
	// queries' arrivals are not queued, Drain merges them in.
	events eventq.Queue[event]

	res   Results
	loads []int64

	observer obs.Observer

	nextQueryID uint64
	// pick and moved are fanoutTargets' scratch: the neighbors drawn,
	// and the shuffle positions whose entry is no longer the neighbor
	// list's own.
	pick  []int
	moved []displaced
	freeQ []*query

	ran bool
}

// New validates params and builds the overlay, content assignment, and
// static dead set. The same params always yield the same engine state.
func New(params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	root := simrng.New(params.Seed)
	universe, err := content.New(params.Content)
	if err != nil {
		return nil, err
	}
	topo, err := gnutella.NewRandom(root.Stream("topology"), params.NetworkSize, params.AvgDegree)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		p:           params,
		universe:    universe,
		topo:        topo,
		rngWorkload: root.Stream("workload"),
		rngSpread:   root.Stream("spread"),
		rngNet:      root.Stream("net"),
	}
	n := params.NetworkSize
	rngContent := root.Stream("content")
	e.libs = make([]content.Library, n)
	for i := range e.libs {
		e.libs[i] = universe.NewLibrary(rngContent, universe.SampleLibrarySize(rngContent))
	}
	// Exact-count dead set: the first k entries of a random
	// permutation, so at least one peer is always live.
	e.dead = make([]bool, n)
	k := int(params.DeadFraction * float64(n))
	if k >= n {
		k = n - 1
	}
	for _, v := range root.Stream("churn").Perm(n)[:k] {
		e.dead[v] = true
	}
	e.live = n - k
	e.loads = make([]int64, n)
	return e, nil
}

// SetObserver attaches a trace observer. Observers receive events but
// never consume randomness or influence control flow, so attaching one
// leaves Results byte-identical.
func (e *Engine) SetObserver(o obs.Observer) { e.observer = o }

// Run executes the configured number of queries and returns the run's
// Results. It may be called once per Engine.
func (e *Engine) Run(ctx context.Context) (*Results, error) {
	if e.ran {
		return nil, fmt.Errorf("gossip: Engine.Run called twice")
	}
	e.ran = true
	// Like core.Engine, a cancelled run returns its partial results
	// with Interrupted set and no error.
	e.res.Interrupted = e.events.Drain(ctx, e.drawArrivals(), event{kind: evQueryStart}, e.step)
	e.finalize()
	return &e.res, nil
}

// drawArrivals draws every query's start time, ascending, before the
// first query starts: startQuery draws from the same stream, and the
// seeded results fix the order of its draws.
func (e *Engine) drawArrivals() []float64 {
	arrivals := make([]float64, e.p.NumQueries)
	t := 0.0
	for i := range arrivals {
		t += e.rngWorkload.ExpFloat64() / e.p.QueryRate
		arrivals[i] = t
	}
	return arrivals
}

// step handles one event as Drain hands it out.
func (e *Engine) step(when float64, ev event) bool {
	e.now = when
	switch ev.kind {
	case evQueryStart:
		e.startQuery()
	case evRound:
		e.runRound(ev.q)
	}
	return true
}

func (e *Engine) finalize() {
	e.res.PeerLoads = e.loads
}

func (e *Engine) newQuery() *query {
	if n := len(e.freeQ); n > 0 {
		q := e.freeQ[n-1]
		e.freeQ = e.freeQ[:n-1]
		return q
	}
	return &query{informed: make([]bool, e.p.NetworkSize)}
}

func (e *Engine) recycle(q *query) {
	for _, v := range q.spreaders {
		q.informed[v] = false
	}
	q.spreaders = q.spreaders[:0]
	e.freeQ = append(e.freeQ, q)
}

func (e *Engine) startQuery() {
	q := e.newQuery()
	e.nextQueryID++
	q.id = e.nextQueryID
	q.start = e.now
	q.round = 0
	q.messages = 0
	q.item = e.universe.DrawQuery(e.rngWorkload)
	for {
		q.origin = e.rngWorkload.Intn(e.p.NetworkSize)
		if !e.dead[q.origin] {
			break
		}
	}
	q.informed[q.origin] = true
	q.spreaders = append(q.spreaders, q.origin)
	q.results = e.libs[q.origin].Results(q.item)
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind: obs.EvQueryIssued, Time: e.now,
			Query: q.id, Peer: uint64(q.origin),
		})
	}
	if q.results >= e.p.NumDesiredResults {
		e.finishQuery(q, true)
		return
	}
	e.events.Push(e.now+e.p.RoundInterval, event{kind: evRound, q: q})
}

// runRound executes one synchronous gossip round for q and either
// finishes the query or schedules the next round. The round's message
// counts are kept in locals and added to q and e.res once at its end;
// nothing reads them in between.
func (e *Engine) runRound(q *query) {
	q.round++
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind: obs.EvProbeRound, Time: e.now,
			Query: q.id, Peer: uint64(q.origin),
			Round: q.round, Probes: int(q.messages),
		})
	}
	loss, lossy := e.p.LossProb, e.p.LossProb > 0
	dead, informed, loads := e.dead, q.informed, e.loads
	var sent, delivered int
	if e.p.Mode == ModePush || e.p.Mode == ModePushPull {
		// Informed peers push the rumor. Peers infected during this
		// round spread next round: range over the spreaders as they
		// stood before the first append. In push-pull mode each
		// delivered push draws a response back to its live sender.
		respond := e.p.Mode == ModePushPull
		for _, s := range q.spreaders {
			for _, dst := range e.fanoutTargets(s) {
				ok := !e.rngNet.Bool(loss) && !dead[dst]
				sent++
				if e.observer != nil {
					outcome := obs.OutcomeDead
					if ok {
						outcome = obs.OutcomeGood
					}
					e.observer.Observe(obs.Event{
						Kind: obs.EvProbe, Time: e.now,
						Query: q.id, Peer: uint64(s), Target: uint64(dst),
						Outcome: outcome,
					})
				}
				if !ok {
					continue
				}
				delivered++
				loads[dst]++
				if !informed[dst] {
					e.inform(q, dst)
				}
				if respond {
					sent++
					if !e.rngNet.Bool(loss) {
						delivered++
						loads[s]++
					}
				}
			}
		}
	}
	if e.p.Mode == ModePull || e.p.Mode == ModePushPull {
		// Every uninformed live peer polls its targets in one pass. A
		// poll that reaches a live target is delivered; one that
		// reaches an informed target draws the rumor back. The counts
		// are 0/1 arithmetic on dead and informed, not branches; with
		// no loss there is no draw for the response to wait on.
		for v, have := range informed {
			if have || dead[v] {
				continue
			}
			heard := 0
			for _, dst := range e.fanoutTargets(v) {
				ok := bit(!e.rngNet.Bool(loss)) &^ bit(dead[dst])
				reach := ok & bit(informed[dst])
				got := reach
				if lossy && reach != 0 {
					got = bit(!e.rngNet.Bool(loss))
				}
				loads[dst] += int64(ok)
				sent += 1 + reach
				delivered += ok + got
				heard += got
			}
			if heard != 0 {
				// v got the rumor: at most once per peer per query.
				loads[v] += int64(heard)
				e.inform(q, v)
			}
		}
	}
	q.messages += int64(sent)
	e.res.MessagesSent += int64(sent)
	e.res.MessagesDelivered += int64(delivered)
	e.res.MessagesDropped += int64(sent - delivered)
	switch {
	case q.results >= e.p.NumDesiredResults:
		e.finishQuery(q, true)
	case q.round >= e.p.MaxRounds || len(q.spreaders) == e.live:
		e.finishQuery(q, false)
	default:
		e.events.Push(e.now+e.p.RoundInterval, event{kind: evRound, q: q})
	}
}

// bit is b as 0 or 1. The compiler makes it a flag-to-register move,
// so arithmetic on it takes no branch.
func bit(b bool) int {
	n := 0
	if b {
		n = 1
	}
	return n
}

// displaced is one position of fanoutTargets' shuffle that no longer
// holds the neighbor list's own entry.
type displaced struct {
	pos int
	val int
}

// fanoutTargets samples min(Fanout, degree) distinct neighbors of v
// into e.pick via a partial Fisher-Yates shuffle. The shuffle runs over
// the neighbor list in place of a copy: step i reads positions i and
// j >= i and writes only j (position i is never read again), so the
// shuffled list is the neighbor list plus at most one displaced
// position per step.
//
// Two targets have a closed form with the shuffle's two draws: the
// first step swaps positions 0 and j0, so the second step's j1 >= 1
// finds neighbor j1, or neighbor 0 where the swap put it (j1 == j0).
func (e *Engine) fanoutTargets(v int) []int {
	nbrs := e.topo.Neighbors(v)
	k := e.p.Fanout
	if k > len(nbrs) {
		k = len(nbrs)
	}
	if cap(e.pick) < k {
		e.pick, e.moved = make([]int, k), make([]displaced, k)
	}
	if k == 2 {
		j0 := e.rngSpread.Intn(len(nbrs))
		j1 := 1 + e.rngSpread.Intn(len(nbrs)-1)
		if j1 == j0 {
			j1 = 0
		}
		pick := e.pick[:2]
		pick[0], pick[1] = nbrs[j0], nbrs[j1]
		return pick
	}
	pick, moved, n := e.pick[:k], e.moved[:k], 0
	for i := range pick {
		j := i + e.rngSpread.Intn(len(nbrs)-i)
		vi, vj, at := nbrs[i], nbrs[j], n
		for m := 0; m < n; m++ {
			switch moved[m].pos {
			case i:
				vi = moved[m].val
			case j:
				vj, at = moved[m].val, m
			}
		}
		if j == i {
			vj = vi
		} else {
			moved[at] = displaced{pos: j, val: vi}
			if at == n {
				n++
			}
		}
		pick[i] = vj
	}
	return pick
}

// inform marks v as holding the rumor and collects v's results.
func (e *Engine) inform(q *query, v int) {
	q.informed[v] = true
	q.spreaders = append(q.spreaders, v)
	q.results += e.libs[v].Results(q.item)
}

func (e *Engine) finishQuery(q *query, satisfied bool) {
	e.res.Queries++
	outcome := obs.OutcomeExhausted
	if satisfied {
		e.res.Satisfied++
		outcome = obs.OutcomeSatisfied
	} else {
		e.res.Unsatisfied++
	}
	e.res.RoundsTotal += int64(q.round)
	if q.round > e.res.MaxRoundsUsed {
		e.res.MaxRoundsUsed = q.round
	}
	e.res.PeersInformed += int64(len(q.spreaders))
	e.res.ResultsFound += int64(q.results)
	e.res.ResponseTimeSum += e.now - q.start
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind: obs.EvQueryDone, Time: e.now,
			Query: q.id, Peer: uint64(q.origin),
			Outcome: outcome, Probes: int(q.messages), Results: q.results,
		})
	}
	e.recycle(q)
}

// Run is a convenience wrapper: build an engine and run it.
func Run(ctx context.Context, params Params) (*Results, error) {
	e, err := New(params)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx)
}
