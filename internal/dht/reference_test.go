package dht

// References for the mechanisms the engine replaced: the event queue
// holding every arrival from the start, and the two Go maps per peer
// that held the records. The engine must order its events and answer
// recordAt exactly as they did.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/content"
	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// popped is one event as a merge-order script sees it.
type popped struct {
	when float64
	kind evKind
	id   uint64 // the hop's lookup; 0 for an arrival
}

func poppedOf(when float64, ev event) popped {
	p := popped{when: when, kind: ev.kind}
	if ev.q != nil {
		p.id = ev.q.id
	}
	return p
}

// TestArrivalMergeOrder: Run's Drain, handed the engine's arrivals and
// arrival event, must hand out arrivals and hop attempts in the order of one
// queue into which every arrival was pushed before the first pop.
func TestArrivalMergeOrder(t *testing.T) {
	arrivals := []float64{1, 2, 2, 3, 5, 5, 9, 12, 12}
	// hops[k] are the hop attempts pushed while the k-th handed-out event
	// is handled, as startLookup and handleHop would.
	hops := map[int][]float64{
		0:  {2},      // due with two arrivals still to come: they go first
		1:  {3, 2.5}, // out of order, and one due with an arrival
		3:  {5, 5, 4},
		6:  {5}, // due with arrivals already handed out
		9:  {5}, // after the arrivals at 5
		12: {9}, // due with the arrival at 9
		// the queue drains before the arrivals at 12
	}
	// script returns a step that records each event and pushes the
	// hop attempts due with it.
	script := func(q *eventq.Queue[event], out *[]popped) func(float64, event) bool {
		var id uint64
		return func(when float64, ev event) bool {
			for _, at := range hops[len(*out)] {
				id++
				q.Push(at, event{kind: evHop, q: &lookup{id: id}})
			}
			*out = append(*out, poppedOf(when, ev))
			return true
		}
	}

	var ref eventq.Queue[event]
	for _, at := range arrivals {
		ref.Push(at, event{kind: evLookupStart})
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
	if e.events.Drain(context.Background(), arrivals, event{kind: evLookupStart}, script(&e.events, &got)) {
		t.Fatal("Drain reported a cancellation")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order differs from the pre-pushed queue's:\n got %v\nwant %v", got, want)
	}
	pushed := 0
	for _, p := range hops {
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
	for i := 0; i < e.p.NumLookups; i++ {
		t += e.rngWorkload.ExpFloat64() / e.p.LookupRate
		e.events.Push(t, event{kind: evLookupStart})
	}
	for {
		when, ev, ok := e.events.Pop()
		if !ok {
			break
		}
		e.now = when
		switch ev.kind {
		case evLookupStart:
			e.startLookup()
		case evHop:
			e.handleHop(ev.q)
		}
	}
	e.finalize()
	return &e.res
}

// overlapParams makes lookups arrive far faster than they finish, so
// arrivals and hop attempts interleave and tie throughout the run.
func overlapParams() Params {
	p := testParams()
	p.NumLookups = 2000
	p.LookupRate = 400 // 20 arrivals per hop latency
	return p
}

func TestRunMatchesPrePushedArrivals(t *testing.T) {
	p := overlapParams()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	want := runPrePushed(e)
	got := run(t, p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged arrivals changed the run:\n got %s\nwant %s", marshal(t, got), marshal(t, want))
	}
}

// TestQueryIssuedAscends: lookups are numbered as they start, so in the
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
			t.Errorf("lookup %d issued %d-th", ev.Query, issued)
		}
	}))
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if issued != uint64(p.NumLookups) {
		t.Fatalf("%d lookups issued, want %d", issued, p.NumLookups)
	}
}

// mapModel is the record state as the engine kept it before: per peer,
// a map of authoritative records and a replica cache indexed by a
// second map.
type mapModel struct {
	cacheSize int
	rng       *simrng.RNG
	store     []map[content.ItemID]int32
	cache     [][]record
	cacheIdx  []map[content.ItemID]int
}

func (m *mapModel) cacheAt(v int, item content.ItemID, providers int32) {
	if m.cacheSize == 0 {
		return
	}
	if _, ok := m.store[v][item]; ok {
		return
	}
	if _, ok := m.cacheIdx[v][item]; ok {
		return
	}
	rec := record{item: item, providers: providers}
	if len(m.cache[v]) < m.cacheSize {
		m.cacheIdx[v][item] = len(m.cache[v])
		m.cache[v] = append(m.cache[v], rec)
		return
	}
	i := m.rng.Intn(len(m.cache[v]))
	delete(m.cacheIdx[v], m.cache[v][i].item)
	m.cache[v][i] = rec
	m.cacheIdx[v][item] = i
}

func (m *mapModel) recordAt(v int, item content.ItemID) (providers int32, cached, ok bool) {
	if p, hit := m.store[v][item]; hit {
		return p, false, true
	}
	if i, hit := m.cacheIdx[v][item]; hit {
		return m.cache[v][i].providers, true, true
	}
	return 0, false, false
}

// newMapModel replays publish into a model, drawing from a cache stream
// of its own that starts where the engine's started.
func newMapModel(e *Engine) *mapModel {
	n := e.p.NetworkSize
	m := &mapModel{
		cacheSize: e.p.CacheSize,
		rng:       simrng.New(e.p.Seed).Stream("cache"),
		store:     make([]map[content.ItemID]int32, n),
		cache:     make([][]record, n),
		cacheIdx:  make([]map[content.ItemID]int, n),
	}
	for v := range m.store {
		m.store[v] = map[content.ItemID]int32{}
		m.cacheIdx[v] = map[content.ItemID]int{}
	}
	for it, count := range e.providers {
		if count == 0 {
			continue
		}
		item := content.ItemID(it)
		owner := e.firstLive(e.ringPos(item))
		m.store[owner][item] = count
		succ := owner
		for r := 1; r < e.p.BaseReplicas; r++ {
			succ = e.firstLive((succ + 1) % n)
			if succ == owner {
				break
			}
			m.store[succ][item] = count
		}
		for c := int32(0); c < count; c++ {
			if m.rng.Bool(e.p.SeedCacheFraction) {
				m.cacheAt(e.randomLivePeer(m.rng), item, count)
			}
		}
	}
	return m
}

// TestRecordStateMatchesMapModel drives the engine's record state and
// the two-map model through publish and a few thousand cache insertions
// drawn like lookups', and compares every (peer, item) answer — NoItem
// and never-shared items included — after each one.
func TestRecordStateMatchesMapModel(t *testing.T) {
	const n, items, steps = 12, 100, 2500
	for _, replicas := range []int{1, 3, n} {
		for _, cacheSize := range []int{0, 1, 16, 64} {
			t.Run(fmt.Sprintf("replicas=%d/cache=%d", replicas, cacheSize), func(t *testing.T) {
				p := DefaultParams()
				p.NetworkSize, p.BaseReplicas, p.CacheSize = n, replicas, cacheSize
				p.DeadFraction = 0.2
				p.SeedCacheFraction = 0.3
				p.Content.NumItems = items
				p.Seed = uint64(100*replicas + cacheSize)
				e, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				m := newMapModel(e)
				compare := func(step int) {
					t.Helper()
					for v := 0; v < n; v++ {
						for it := content.NoItem; int(it) < items; it++ {
							gp, gc, gok := e.recordAt(v, it)
							wp, wc, wok := m.recordAt(v, it)
							if gp != wp || gc != wc || gok != wok {
								t.Fatalf("step %d: recordAt(%d, %d) = (%d, %v, %v), model (%d, %v, %v)",
									step, v, it, gp, gc, gok, wp, wc, wok)
							}
						}
					}
				}
				compare(-1)
				drive := simrng.New(p.Seed).Stream("drive")
				for step := 0; step < steps; step++ {
					item := e.universe.DrawQuery(drive)
					if item == content.NoItem {
						continue // a miss caches nothing; compare covers recordAt
					}
					v := e.randomLivePeer(drive)
					providers := int32(1 + drive.Intn(9))
					e.cacheAt(v, item, providers)
					m.cacheAt(v, item, providers)
					compare(step)
				}
				if a, b := e.rngCache.Uint64(), m.rng.Uint64(); a != b {
					t.Fatalf("cache streams diverged: engine drew %d, model %d", a, b)
				}
			})
		}
	}
}
