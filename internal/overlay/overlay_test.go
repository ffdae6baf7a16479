package overlay

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// build constructs a graph from an edge list over nodes 1..n.
func build(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 1; i <= n; i++ {
		if err := b.AddNode(cache.PeerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := b.AddEdge(cache.PeerID(e[0]), cache.PeerID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := b.Graph()
	return g
}

func TestEmptyGraph(t *testing.T) {
	b := NewBuilder(0)
	g, dead := b.Graph()
	if g.NumNodes() != 0 || dead != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.LargestWCC() != 0 {
		t.Fatal("components of empty graph not zero")
	}
}

func TestDuplicateNode(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddNode(1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNode(1); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestDeadEdgesDropped(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddNode(1)
	_ = b.AddNode(2)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(1, 99) // dead target
	_ = b.AddEdge(1, 1)  // self loop ignored
	if err := b.AddEdge(42, 1); err == nil {
		t.Fatal("edge from unknown source accepted")
	}
	g, dead := b.Graph()
	if len(g.adj[0]) != 1 || len(g.adj[1]) != 0 {
		t.Fatalf("adjacency = %v, want only the edge 1 -> 2", g.adj)
	}
	if dead != 1 {
		t.Fatalf("dead edges = %d, want 1", dead)
	}
}

func TestLargestWCC(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"isolated", 4, nil, 1},
		{"chain", 4, [][2]int{{1, 2}, {2, 3}, {3, 4}}, 4},
		{"two components", 5, [][2]int{{1, 2}, {3, 4}, {4, 5}}, 3},
		{"direction ignored", 3, [][2]int{{2, 1}, {2, 3}}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := build(t, tt.n, tt.edges)
			if got := g.LargestWCC(); got != tt.want {
				t.Fatalf("LargestWCC = %d, want %d", got, tt.want)
			}
		})
	}
}

func bruteWCC(n int, edges [][2]int) int {
	if n == 0 {
		return 0
	}
	adj := make([][]int, n+1)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, n+1)
	best := 0
	for s := 1; s <= n; s++ {
		if seen[s] {
			continue
		}
		size := 0
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			size++
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}

// TestWCCMatchesBruteForce cross-checks union-find against BFS on
// random graphs.
func TestWCCMatchesBruteForce(t *testing.T) {
	r := simrng.New(1)
	f := func(seed uint16) bool {
		n := 2 + r.Intn(40)
		m := r.Intn(3 * n)
		edges := make([][2]int, 0, m)
		for i := 0; i < m; i++ {
			a := 1 + r.Intn(n)
			b := 1 + r.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		g := build(t, n, edges)
		return g.LargestWCC() == bruteWCC(n, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLargestWCC(b *testing.B) {
	r := simrng.New(1)
	const n = 1000
	bld := NewBuilder(n)
	for i := 1; i <= n; i++ {
		_ = bld.AddNode(cache.PeerID(i))
	}
	for i := 1; i <= n; i++ {
		for j := 0; j < 20; j++ {
			_ = bld.AddEdge(cache.PeerID(i), cache.PeerID(1+r.Intn(n)))
		}
	}
	g, _ := bld.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.LargestWCC()
	}
}
