package gossip

// References for the mechanisms the engine replaced: the event queue
// holding every arrival from the start, the fan-out that shuffled a
// copy of the neighbor list, and the round that sent one message at a
// time over every peer. The engine must order its events, pick its
// targets, and count, load and draw exactly as they did.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/eventq"
	"repro/internal/gnutella"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// popped is one event as a merge-order script sees it.
type popped struct {
	when float64
	kind evKind
	id   uint64 // the round's query; 0 for an arrival
}

func poppedOf(when float64, ev event) popped {
	p := popped{when: when, kind: ev.kind}
	if ev.q != nil {
		p.id = ev.q.id
	}
	return p
}

// TestArrivalMergeOrder: Run's Drain, handed the engine's arrivals and
// arrival event, must hand out arrivals and rounds in the order of one
// queue into which every arrival was pushed before the first pop.
func TestArrivalMergeOrder(t *testing.T) {
	arrivals := []float64{1, 2, 2, 3, 5, 5, 9, 12, 12}
	// rounds[k] are the rounds pushed while the k-th handed-out event
	// is handled, as startQuery and runRound would.
	rounds := map[int][]float64{
		0:  {2},      // due with two arrivals still to come: they go first
		1:  {3, 2.5}, // out of order, and one due with an arrival
		3:  {5, 5, 4},
		6:  {5}, // due with arrivals already handed out
		9:  {5}, // after the arrivals at 5
		12: {9}, // due with the arrival at 9
		// the queue drains before the arrivals at 12
	}
	// script returns a step that records each event and pushes the
	// rounds due with it.
	script := func(q *eventq.Queue[event], out *[]popped) func(float64, event) bool {
		var id uint64
		return func(when float64, ev event) bool {
			for _, at := range rounds[len(*out)] {
				id++
				q.Push(at, event{kind: evRound, q: &query{id: id}})
			}
			*out = append(*out, poppedOf(when, ev))
			return true
		}
	}

	var ref eventq.Queue[event]
	for _, at := range arrivals {
		ref.Push(at, event{kind: evQueryStart})
	}
	var want []popped
	step := script(&ref, &want)
	for {
		when, ev, ok := ref.Pop()
		if !ok {
			break
		}
		step(when, ev)
	}

	e := &Engine{}
	var got []popped
	if e.events.Drain(context.Background(), arrivals, event{kind: evQueryStart}, script(&e.events, &got)) {
		t.Fatal("Drain reported a cancellation")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order differs from the pre-pushed queue's:\n got %v\nwant %v", got, want)
	}
	pushed := 0
	for _, p := range rounds {
		pushed += len(p)
	}
	if len(got) != len(arrivals)+pushed || e.events.Len() != 0 {
		t.Fatalf("Drain handed out %d events and left %d, want %d and 0", len(got), e.events.Len(), len(arrivals)+pushed)
	}
}

// runPrePushed is Run as it was: every arrival on the heap before the
// first pop.
func runPrePushed(e *Engine) *Results {
	t := 0.0
	for i := 0; i < e.p.NumQueries; i++ {
		t += e.rngWorkload.ExpFloat64() / e.p.QueryRate
		e.events.Push(t, event{kind: evQueryStart})
	}
	for {
		when, ev, ok := e.events.Pop()
		if !ok {
			break
		}
		e.now = when
		switch ev.kind {
		case evQueryStart:
			e.startQuery()
		case evRound:
			e.runRound(ev.q)
		}
	}
	e.finalize()
	return &e.res
}

// overlapParams makes queries arrive far faster than they finish, so
// arrivals and rounds interleave throughout the run and the free list
// hands a finished query's arrays to a later one.
func overlapParams() Params {
	p := testParams()
	p.NumQueries = 400
	p.QueryRate = 5 / p.RoundInterval // 5 arrivals per round
	return p
}

func TestRunMatchesPrePushedArrivals(t *testing.T) {
	for _, mode := range []Mode{ModePush, ModePull, ModePushPull} {
		p := overlapParams()
		p.Mode = mode
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		want := runPrePushed(e)
		got := run(t, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: merged arrivals changed the run:\n got %s\nwant %s", mode, marshal(t, got), marshal(t, want))
		}
	}
}

// TestQueryIssuedAscends: queries are numbered as they start, so in the
// trace the EvQueryIssued ids count up from 1 while time never runs
// backwards.
func TestQueryIssuedAscends(t *testing.T) {
	p := overlapParams()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var issued uint64
	last := 0.0
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) {
		if ev.Time < last {
			t.Errorf("event at %v after one at %v", ev.Time, last)
		}
		last = ev.Time
		if ev.Kind != obs.EvQueryIssued {
			return
		}
		issued++
		if ev.Query != issued {
			t.Errorf("query %d issued %d-th", ev.Query, issued)
		}
	}))
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if issued != uint64(p.NumQueries) {
		t.Fatalf("%d queries issued, want %d", issued, p.NumQueries)
	}
}

// shuffledFanout is fanoutTargets as it was: a partial Fisher-Yates
// shuffle of a copy of the neighbor list.
func shuffledFanout(r *simrng.RNG, nbrs []int, fanout int) []int {
	k := fanout
	if k > len(nbrs) {
		k = len(nbrs)
	}
	pick := append([]int(nil), nbrs...)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(pick)-i)
		pick[i], pick[j] = pick[j], pick[i]
	}
	return pick[:k]
}

// TestFanoutTargetsMatchesReference: for every degree 2-12 and every
// Fanout from 1 to past the degree, the copy-free fan-out picks the
// neighbors the shuffled copy picked, in the same order, from the same
// draws.
func TestFanoutTargetsMatchesReference(t *testing.T) {
	// The overlay New builds: its ring gives every node degree 2 or
	// more, so no gossip overlay has a node of degree 1, and its random
	// edges spread the degrees well past 12.
	topo, err := gnutella.NewRandom(simrng.New(3), 3000, 6)
	if err != nil {
		t.Fatal(err)
	}
	const minDegree, maxDegree, perDegree, rounds = 2, 12, 3, 50
	var nodes []int
	covered := make([]int, maxDegree+1)
	for v := 0; v < topo.NumNodes(); v++ {
		if d := topo.Degree(v); d <= maxDegree && covered[d] < perDegree {
			covered[d]++
			nodes = append(nodes, v)
		}
	}
	for d := minDegree; d <= maxDegree; d++ {
		if covered[d] == 0 {
			t.Fatalf("no node of degree %d in the test topology", d)
		}
	}
	for fanout := 1; fanout <= maxDegree+2; fanout++ {
		// One engine serves every node, so its scratch is reused across
		// degrees.
		e := &Engine{p: Params{Fanout: fanout}, topo: topo, rngSpread: simrng.New(uint64(fanout))}
		ref := simrng.New(uint64(fanout))
		for round := 0; round < rounds; round++ {
			for _, v := range nodes {
				d := topo.Degree(v)
				if fanout > d+2 {
					continue
				}
				got, want := e.fanoutTargets(v), shuffledFanout(ref, topo.Neighbors(v), fanout)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("degree %d fanout %d round %d: picked %v, reference %v", d, fanout, round, got, want)
				}
			}
		}
		if a, b := e.rngSpread.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("fanout %d: streams diverged after the picks", fanout)
		}
	}
}

// send accounts one message to dst and reports whether it was
// delivered (dst live and the message not lost).
func (e *Engine) send(q *query, dst int) bool {
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

// pushFrom has informed peer s push the rumor to Fanout random
// neighbors. In push-pull mode each successful push also triggers a
// response message back to s.
func (e *Engine) pushFrom(q *query, s int) {
	for _, dst := range shuffledFanout(e.rngSpread, e.topo.Neighbors(s), e.p.Fanout) {
		delivered := e.send(q, dst)
		if e.observer != nil {
			outcome := obs.OutcomeDead
			if delivered {
				outcome = obs.OutcomeGood
			}
			e.observer.Observe(obs.Event{
				Kind: obs.EvProbe, Time: e.now,
				Query: q.id, Peer: uint64(s), Target: uint64(dst),
				Outcome: outcome,
			})
		}
		if !delivered {
			continue
		}
		if !q.informed[dst] {
			e.inform(q, dst)
		}
		if e.p.Mode == ModePushPull {
			e.send(q, s) // response; s is live by construction
		}
	}
}

// pullFrom has uninformed live peer v poll Fanout random neighbors;
// informed live neighbors respond with the rumor.
func (e *Engine) pullFrom(q *query, v int) {
	for _, dst := range shuffledFanout(e.rngSpread, e.topo.Neighbors(v), e.p.Fanout) {
		if !e.send(q, dst) {
			continue
		}
		if !q.informed[dst] {
			continue
		}
		// Response carrying the rumor back to v.
		if !e.send(q, v) {
			continue
		}
		if !q.informed[v] {
			e.inform(q, v)
		}
	}
}

// perPeerRound is runRound as it was: a send call per message, and a
// pullFrom call for every uninformed live peer.
func (e *Engine) perPeerRound(q *query) {
	q.round++
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind: obs.EvProbeRound, Time: e.now,
			Query: q.id, Peer: uint64(q.origin),
			Round: q.round, Probes: int(q.messages),
		})
	}
	if e.p.Mode == ModePush || e.p.Mode == ModePushPull {
		count := len(q.spreaders)
		for i := 0; i < count; i++ {
			e.pushFrom(q, q.spreaders[i])
		}
	}
	if e.p.Mode == ModePull || e.p.Mode == ModePushPull {
		for v := 0; v < e.p.NetworkSize; v++ {
			if e.dead[v] || q.informed[v] {
				continue
			}
			e.pullFrom(q, v)
		}
	}
	switch {
	case q.results >= e.p.NumDesiredResults:
		e.finishQuery(q, true)
	case q.round >= e.p.MaxRounds || len(q.spreaders) == e.live:
		e.finishQuery(q, false)
	default:
		e.events.Push(e.now+e.p.RoundInterval, event{kind: evRound, q: q})
	}
}

// runPerPeer is Run with perPeerRound in place of runRound.
func runPerPeer(e *Engine) *Results {
	e.events.Drain(context.Background(), e.drawArrivals(), event{kind: evQueryStart}, func(when float64, ev event) bool {
		e.now = when
		switch ev.kind {
		case evQueryStart:
			e.startQuery()
		case evRound:
			e.perPeerRound(ev.q)
		}
		return true
	})
	e.finalize()
	return &e.res
}

// recorded is a run's Results, its observer's event stream, and the
// next draw of each stream a round draws from.
type recorded struct {
	res         *Results
	events      []obs.Event
	spread, net uint64
}

// record runs p through the engine, or through the per-peer reference
// round when perPeer is set.
func record(p Params, perPeer bool) (recorded, error) {
	e, err := New(p)
	if err != nil {
		return recorded{}, err
	}
	var r recorded
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) { r.events = append(r.events, ev) }))
	if perPeer {
		r.res = runPerPeer(e)
	} else if r.res, err = e.Run(context.Background()); err != nil {
		return recorded{}, err
	}
	r.spread, r.net = e.rngSpread.Uint64(), e.rngNet.Uint64()
	return r, nil
}

// diffPerPeer runs p through the engine and through the per-peer
// reference round and describes the first difference, or returns "".
func diffPerPeer(p Params) (string, error) {
	got, err := record(p, false)
	if err != nil {
		return "", err
	}
	want, err := record(p, true)
	if err != nil {
		return "", err
	}
	switch {
	case !reflect.DeepEqual(got.res, want.res):
		return fmt.Sprintf("Results differ:\n got %+v\nwant %+v", *got.res, *want.res), nil
	case !reflect.DeepEqual(got.events, want.events):
		for i := range min(len(got.events), len(want.events)) {
			if got.events[i] != want.events[i] {
				return fmt.Sprintf("event %d differs:\n got %+v\nwant %+v", i, got.events[i], want.events[i]), nil
			}
		}
		return fmt.Sprintf("%d events, reference %d", len(got.events), len(want.events)), nil
	case got.spread != want.spread:
		return "spread stream's next draw differs", nil
	case got.net != want.net:
		return "net stream's next draw differs", nil
	}
	return "", nil
}

// TestRoundMatchesPerPeerReference: the one-pass round counts every
// message, loads every peer, informs every peer and emits every event
// as the per-peer round did, from the same draws, and leaves both of
// its streams where that round left them.
func TestRoundMatchesPerPeerReference(t *testing.T) {
	base := DefaultParams()
	base.NetworkSize, base.NumQueries = 300, 20
	// A small universe keeps New cheap; five results keep the rumor
	// spreading for several rounds.
	base.Content.NumItems, base.NumDesiredResults = 1000, 5
	for _, mode := range []Mode{ModePush, ModePull, ModePushPull} {
		for _, fanout := range []int{1, 2, 3, base.AvgDegree + 2} {
			for _, loss := range []float64{0, 0.1} {
				for _, dead := range []float64{0, 0.1, 0.5} {
					for seed := uint64(1); seed <= 3; seed++ {
						p := base
						p.Mode, p.Fanout, p.LossProb, p.DeadFraction, p.Seed = mode, fanout, loss, dead, seed
						diff, err := diffPerPeer(p)
						if err != nil {
							t.Fatal(err)
						}
						if diff != "" {
							t.Fatalf("%v fanout %d loss %v dead %v seed %d: %s", mode, fanout, loss, dead, seed, diff)
						}
					}
				}
			}
		}
	}
}
