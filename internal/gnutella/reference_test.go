package gnutella

// References for the mechanisms this package replaced: the flood that
// allocated and cleared a depth slice per query, the result count that
// probed every reached peer's library and the edge map behind
// NewRandom. The replacements must return exactly what these do.

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/simrng"
)

// depthFlood is Flood as it was.
func depthFlood(t *Topology, origin, ttl int) FloodStats {
	depth := make([]int, len(t.adj))
	for i := range depth {
		depth[i] = -1
	}
	depth[origin] = 0
	stats := FloodStats{Reached: []int{origin}}
	frontier := []int{origin}
	for d := 0; d < ttl && len(frontier) > 0; d++ {
		var next []int
		for _, v := range frontier {
			out := len(t.adj[v])
			if v != origin {
				out--
			}
			stats.Messages += out
			for _, w := range t.adj[v] {
				if depth[w] == -1 {
					depth[w] = d + 1
					next = append(next, w)
					stats.Reached = append(stats.Reached, w)
				}
			}
		}
		frontier = next
	}
	return stats
}

// scanSearch is the result count as it was: one library lookup per
// reached peer.
func scanSearch(t *Topology, p *Population, item content.ItemID, origin, ttl, desired int) (SearchResult, FloodStats) {
	stats := depthFlood(t, origin, ttl)
	res := SearchResult{Probes: len(stats.Reached)}
	for _, v := range stats.Reached {
		res.Results += p.libs[v].Results(item)
	}
	res.Satisfied = res.Results >= desired
	return res, stats
}

// testTopologies returns a random overlay of n nodes and a hub-heavy
// one: a ring whose node 0 is also linked to every third node, so one
// hub has degree about n/3 and every other node 2 or 3.
func testTopologies(t *testing.T, n int) (random, hubbed *Topology) {
	t.Helper()
	random, err := NewRandom(simrng.New(7), n, 6)
	if err != nil {
		t.Fatal(err)
	}
	hubbed = &Topology{adj: make([][]int, n)}
	link := func(a, b int) {
		hubbed.adj[a] = append(hubbed.adj[a], b)
		hubbed.adj[b] = append(hubbed.adj[b], a)
	}
	for v := 0; v < n; v++ {
		link(v, (v+1)%n)
	}
	for v := 3; v < n-1; v += 3 {
		link(0, v)
	}
	return random, hubbed
}

// TestFloodSearchMatchesLibraryScan: on one scratch reused throughout,
// for TTL 0-6 and every kind of target — each item some peer holds, one
// nobody holds, NoItem — Results, Probes, Reached and Messages are the
// per-library scan's, before and after the scratch's generation wraps.
func TestFloodSearchMatchesLibraryScan(t *testing.T) {
	const n = 150
	params := content.DefaultParams()
	params.NumItems = 3000
	u := content.MustNew(params)
	p, err := NewPopulation(u, n, simrng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	held := make([]bool, params.NumItems)
	for _, lib := range p.libs {
		for _, it := range lib.AppendItems(nil) {
			held[it] = true
		}
	}
	targets := []content.ItemID{content.NoItem}
	unheld := false
	for it, h := range held {
		if h || !unheld {
			targets = append(targets, content.ItemID(it))
		}
		unheld = unheld || !h
	}
	if !unheld {
		t.Fatal("every item is held; the test needs one that is not")
	}

	random, hubbed := testTopologies(t, n)
	hub := 0
	for v := 0; v < n; v++ {
		hub = max(hub, hubbed.Degree(v))
	}
	if hub < n/4 {
		t.Fatalf("hubbed topology's largest degree is %d, want a hub of at least %d", hub, n/4)
	}
	for i, topo := range []*Topology{random, hubbed} {
		name := []string{"random", "hubbed"}[i]
		var scratch FloodScratch
		origins := simrng.New(9)
		check := func(item content.ItemID, ttl int) {
			t.Helper()
			origin, desired := origins.Intn(n), 1+origins.Intn(3)
			wantRes, wantStats := scanSearch(topo, p, item, origin, ttl, desired)
			gotRes, gotStats, err := floodSearchItem(topo, p, &scratch, item, origin, ttl, desired)
			if err != nil {
				t.Fatal(err)
			}
			if gotRes != wantRes || !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("%s: item %d origin %d ttl %d: got %+v %+v, scan %+v %+v",
					name, item, origin, ttl, gotRes, gotStats, wantRes, wantStats)
			}
		}
		for ttl := 0; ttl <= 6; ttl++ {
			for _, item := range targets {
				check(item, ttl)
			}
		}
		// Marks written just before the wrap must not read as members
		// just after it.
		scratch.marked.gen = math.MaxUint32 - 2
		for i := 0; i < 6; i++ {
			check(targets[1+i], 3)
		}
		if scratch.marked.gen != 4 {
			t.Fatalf("%s: generation %d after the wrap, want 4", name, scratch.marked.gen)
		}
	}
}

// TestFloodSearchDrawsItsTarget: the exported entry is floodSearchItem
// on the target DrawQuery gives it, and consumes nothing else.
func TestFloodSearchDrawsItsTarget(t *testing.T) {
	const n = 150
	u := content.MustNew(content.DefaultParams())
	p, err := NewPopulation(u, n, simrng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := testTopologies(t, n)
	var scratch FloodScratch
	r, ref := simrng.New(10), simrng.New(10)
	for q := 0; q < 200; q++ {
		origin := q % n
		wantRes, wantStats := scanSearch(topo, p, u.DrawQuery(ref), origin, 3, 1)
		gotRes, gotStats, err := FloodSearch(topo, p, r, &scratch, origin, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gotRes != wantRes || !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("query %d: got %+v %+v, scan %+v %+v", q, gotRes, gotStats, wantRes, wantStats)
		}
	}
	if a, b := r.Uint64(), ref.Uint64(); a != b {
		t.Fatal("FloodSearch drew more than its target")
	}
}

// TestConcurrentFloodsShareTopology: a Topology is read-only to a
// flood, so two goroutines flooding it, each on its own scratch, get
// what a serial run gets. Run under -race (make race).
func TestConcurrentFloodsShareTopology(t *testing.T) {
	const n, floods = 300, 400
	_, topo := testTopologies(t, n)
	type outcome struct {
		reached  []int
		messages int
	}
	serial := make([]outcome, floods)
	for i := range serial {
		st := depthFlood(topo, i%n, i%5)
		serial[i] = outcome{st.Reached, st.Messages}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch FloodScratch
			for i := g; i < floods; i += 2 {
				st, err := topo.FloodWith(&scratch, i%n, i%5)
				if err != nil {
					t.Error(err)
					return
				}
				if st.Messages != serial[i].messages || !reflect.DeepEqual(st.Reached, serial[i].reached) {
					t.Errorf("flood %d differs from the serial run", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// mapRandom is NewRandom as it was: edges deduplicated through a map.
func mapRandom(r *simrng.RNG, n, avgDegree int) *Topology {
	t := &Topology{adj: make([][]int, n)}
	seen := make(map[[2]int]bool, n*avgDegree/2)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			return
		}
		seen[key] = true
		t.adj[a] = append(t.adj[a], b)
		t.adj[b] = append(t.adj[b], a)
	}
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n)
	}
	extra := n * (avgDegree - 2) / 2
	for i := 0; i < extra; i++ {
		addEdge(r.Intn(n), r.Intn(n))
	}
	return t
}

// TestNewRandomMatchesMapReference: scanning the shorter adjacency list
// rejects exactly the edges the map rejected, dense graphs (many
// duplicates) and the two-node ring included.
func TestNewRandomMatchesMapReference(t *testing.T) {
	for _, c := range []struct{ n, degree int }{{2, 2}, {3, 2}, {10, 9}, {40, 30}, {300, 6}, {2000, 8}} {
		got, err := NewRandom(simrng.New(12), c.n, c.degree)
		if c.degree >= c.n {
			if err == nil {
				t.Fatalf("n=%d degree=%d accepted", c.n, c.degree)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := mapRandom(simrng.New(12), c.n, c.degree); !reflect.DeepEqual(got.adj, want.adj) {
			t.Fatalf("n=%d degree=%d: adjacency differs from the map-deduplicated build", c.n, c.degree)
		}
	}
}
