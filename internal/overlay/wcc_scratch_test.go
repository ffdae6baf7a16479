package overlay

import (
	"testing"

	"repro/internal/simrng"
)

// TestWCCScratchMatchesGraph checks the reusable union-find against
// breadth-first search over the same random digraph, reusing one
// scratch across snapshots of varying size (the engine's sampling
// pattern).
func TestWCCScratchMatchesGraph(t *testing.T) {
	r := simrng.New(42)
	var sc WCCScratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		edges := randomEdges(r, n, r.Intn(4*n))
		sc.Reset(n)
		for _, e := range edges {
			sc.Union(e[0], e[1])
		}
		if got, want := sc.Largest(), bruteWCC(n, nil, edges); got != want {
			t.Fatalf("trial %d (n=%d, %d edges): scratch WCC %d, brute force %d",
				trial, n, len(edges), got, want)
		}
	}
}

// TestWCCScratchEmpty pins the degenerate cases.
func TestWCCScratchEmpty(t *testing.T) {
	var sc WCCScratch
	sc.Reset(0)
	if got := sc.Largest(); got != 0 {
		t.Fatalf("empty scratch Largest = %d, want 0", got)
	}
	sc.Reset(1)
	if got := sc.Largest(); got != 1 {
		t.Fatalf("singleton Largest = %d, want 1", got)
	}
	// Shrinking reuse after a larger snapshot must not leak state.
	sc.Reset(10)
	for i := 0; i < 9; i++ {
		sc.Union(i, i+1)
	}
	if got := sc.Largest(); got != 10 {
		t.Fatalf("chain Largest = %d, want 10", got)
	}
	sc.Reset(2)
	if got := sc.Largest(); got != 1 {
		t.Fatalf("after shrink Largest = %d, want 1", got)
	}
}

// TestWCCScratchDrop checks a snapshot with holes against breadth-first
// search over the remaining nodes: dropped indices answer Has as
// out-of-range ones do and count towards no component.
func TestWCCScratchDrop(t *testing.T) {
	r := simrng.New(7)
	var sc WCCScratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		sc.Reset(n)
		dropped := map[int]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				sc.Drop(i)
				dropped[i] = true
			}
		}
		if sc.Has(-1) || sc.Has(n) {
			t.Fatalf("trial %d: Has accepts an index outside [0, %d)", trial, n)
		}
		var edges [][2]int
		for e := r.Intn(4 * n); e > 0; e-- {
			from, to := r.Intn(n), r.Intn(n)
			if sc.Has(from) != !dropped[from] || sc.Has(to) != !dropped[to] {
				t.Fatalf("trial %d: Has disagrees with the dropped set", trial)
			}
			edges = append(edges, [2]int{from, to})
			if sc.Has(from) && sc.Has(to) {
				sc.Union(from, to)
			}
		}
		if got, want := sc.Largest(), bruteWCC(n, dropped, edges); got != want {
			t.Fatalf("trial %d (n=%d, %d dropped): scratch WCC %d, brute force %d",
				trial, n, len(dropped), got, want)
		}
	}
}

// BenchmarkWCCScratch is one connectivity sample of the 100k-peer run:
// 32 cache entries a peer, about one address in twenty dead.
func BenchmarkWCCScratch(b *testing.B) {
	const nodes, degree = 100_000, 32
	r := simrng.New(1)
	dead := make([]bool, nodes)
	for i := range dead {
		dead[i] = r.Intn(20) == 0
	}
	edges := make([]int32, nodes*degree)
	for i := range edges {
		edges[i] = int32(r.Intn(nodes))
	}
	var sc WCCScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset(nodes)
		for id, d := range dead {
			if d {
				sc.Drop(id)
			}
		}
		for from := 0; from < nodes; from++ {
			if !sc.Has(from) {
				continue
			}
			for _, to := range edges[from*degree : (from+1)*degree] {
				if sc.Has(int(to)) {
					sc.Union(from, int(to))
				}
			}
		}
		benchLargest = sc.Largest()
	}
}

var benchLargest int
