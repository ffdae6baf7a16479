package gossip

// References for the mechanisms the engine replaced: the event queue
// holding every arrival from the start, and the fan-out that shuffled a
// copy of the neighbor list. The engine must order its events and pick
// its targets exactly as they did.

import (
	"context"
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

// TestArrivalMergeOrder: pop must hand out arrivals and rounds in the
// order of one queue into which every arrival was pushed before the
// first pop.
func TestArrivalMergeOrder(t *testing.T) {
	arrivals := []float64{1, 2, 2, 3, 5, 5, 9, 12, 12}
	// rounds[k] are the rounds pushed while the k-th popped event is
	// handled, as startQuery and runRound would.
	rounds := map[int][]float64{
		0:  {2},      // due with two arrivals still to come: they go first
		1:  {3, 2.5}, // out of order, and one due with an arrival
		3:  {5, 5, 4},
		6:  {5}, // due with arrivals already handed out
		9:  {5}, // after the arrivals at 5
		12: {9}, // due with the arrival at 9
		// the heap drains before the arrivals at 12
	}
	script := func(pop func() (float64, event, bool), push func(float64, event)) []popped {
		var out []popped
		var id uint64
		for k := 0; ; k++ {
			when, ev, ok := pop()
			if !ok {
				return out
			}
			out = append(out, poppedOf(when, ev))
			for _, at := range rounds[k] {
				id++
				push(at, event{kind: evRound, q: &query{id: id}})
			}
		}
	}

	var ref eventq.Queue[event]
	for _, at := range arrivals {
		ref.Push(at, event{kind: evQueryStart})
	}
	want := script(ref.Pop, ref.Push)

	e := &Engine{arrivals: arrivals}
	got := script(e.pop, e.events.Push)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order differs from the pre-pushed queue's:\n got %v\nwant %v", got, want)
	}
	pushed := 0
	for _, r := range rounds {
		pushed += len(r)
	}
	if len(got) != len(arrivals)+pushed {
		t.Fatalf("script popped %d events, want %d", len(got), len(arrivals)+pushed)
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

// TestFanoutTargetsMatchesReference: for every degree 1-12 and every
// Fanout from 1 to past the degree, the copy-free fan-out picks the
// neighbors the shuffled copy picked, in the same order, from the same
// draws.
func TestFanoutTargetsMatchesReference(t *testing.T) {
	// A preferential-attachment tree has leaves, hubs and every degree
	// in between.
	topo, err := gnutella.NewPowerLaw(simrng.New(3), 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	const maxDegree, perDegree, rounds = 12, 3, 50
	var nodes []int
	covered := make([]int, maxDegree+1)
	for v := 0; v < topo.NumNodes(); v++ {
		if d := topo.Degree(v); d <= maxDegree && covered[d] < perDegree {
			covered[d]++
			nodes = append(nodes, v)
		}
	}
	for d := 1; d <= maxDegree; d++ {
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
