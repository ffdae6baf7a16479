package overlay

import (
	"testing"
	"testing/quick"

	"repro/internal/simrng"
)

// largest unions edges over nodes [0, n) on a fresh scratch.
func largest(n int, edges [][2]int) int {
	var s WCCScratch
	s.Reset(n)
	for _, e := range edges {
		s.Union(e[0], e[1])
	}
	return s.Largest()
}

// bruteWCC is the size of the largest weakly connected component by
// breadth-first search over the nodes [0, n) that are not dropped;
// edges touching a dropped node are ignored.
func bruteWCC(n int, dropped map[int]bool, edges [][2]int) int {
	adj := make([][]int, n)
	for _, e := range edges {
		if dropped[e[0]] || dropped[e[1]] {
			continue
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, n)
	best := 0
	for s := 0; s < n; s++ {
		if seen[s] || dropped[s] {
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

// randomEdges draws up to m edges between distinct nodes of [0, n).
func randomEdges(r *simrng.RNG, n, m int) [][2]int {
	edges := make([][2]int, 0, m)
	for i := 0; i < m; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return edges
}

func TestEmptyGraph(t *testing.T) {
	if got := largest(0, nil); got != 0 {
		t.Fatalf("largest component of the empty graph = %d, want 0", got)
	}
	if got := bruteWCC(0, nil, nil); got != 0 {
		t.Fatalf("brute force on the empty graph = %d, want 0", got)
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
		{"chain", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 4},
		{"two components", 5, [][2]int{{0, 1}, {2, 3}, {3, 4}}, 3},
		{"direction ignored", 3, [][2]int{{1, 0}, {1, 2}}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := largest(tt.n, tt.edges); got != tt.want {
				t.Fatalf("Largest = %d, want %d", got, tt.want)
			}
			if got := bruteWCC(tt.n, nil, tt.edges); got != tt.want {
				t.Fatalf("brute force = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestWCCMatchesBruteForce cross-checks union-find against BFS on
// random graphs.
func TestWCCMatchesBruteForce(t *testing.T) {
	r := simrng.New(1)
	f := func(uint16) bool {
		n := 2 + r.Intn(40)
		edges := randomEdges(r, n, r.Intn(3*n))
		return largest(n, edges) == bruteWCC(n, nil, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
