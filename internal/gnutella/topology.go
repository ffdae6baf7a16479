package gnutella

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/simrng"
)

// Topology is an undirected overlay graph for flooding experiments. It
// is immutable once built, so any number of goroutines may flood it at
// once, each on its own FloodScratch.
type Topology struct {
	adj [][]int
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.adj) }

// Degree returns node v's degree.
func (t *Topology) Degree(v int) int { return len(t.adj[v]) }

// Neighbors returns node v's adjacency list (not a copy; do not
// mutate).
func (t *Topology) Neighbors(v int) []int { return t.adj[v] }

// NewRandom builds an Erdős–Rényi-style overlay with n nodes and
// average degree avgDegree, plus a Hamiltonian ring to guarantee
// connectivity (matching Gnutella bootstrap behavior, where every peer
// holds at least a couple of live connections).
func NewRandom(r *simrng.RNG, n, avgDegree int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("gnutella: topology needs >= 2 nodes, got %d", n)
	}
	if avgDegree < 2 || avgDegree >= n {
		return nil, fmt.Errorf("gnutella: average degree %d out of range for %d nodes", avgDegree, n)
	}
	t := &Topology{adj: make([][]int, n)}
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		// An edge is in both ends' lists: look in the shorter one, a
		// handful of entries.
		short, other := t.adj[a], b
		if len(t.adj[b]) < len(short) {
			short, other = t.adj[b], a
		}
		for _, w := range short {
			if w == other {
				return
			}
		}
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
	return t, nil
}

// FloodStats reports one flood's reach and traffic.
type FloodStats struct {
	// Reached is the set of nodes that received the query (including
	// the origin), in the order they received it. After FloodWith it is
	// the scratch's own buffer: the scratch's next flood overwrites it.
	Reached []int
	// Messages is the number of query messages sent, counting the
	// duplicates inherent to flooding (each receiver forwards to all
	// neighbors except the sender while TTL remains).
	Messages int
}

// stampSet is a set of node indices that empties in O(1): v is a member
// while stamp[v] == gen, so taking the next generation clears it.
type stampSet struct {
	stamp []uint32
	gen   uint32
}

// reset empties the set and sizes it for indices below n.
func (s *stampSet) reset(n int) {
	if len(s.stamp) != n {
		s.stamp, s.gen = make([]uint32, n), 0
	}
	s.gen++
	if s.gen == 0 { // wrapped: stamps of 2^32 resets ago would read as members
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
}

func (s *stampSet) has(v int) bool { return s.stamp[v] == s.gen }
func (s *stampSet) add(v int)      { s.stamp[v] = s.gen }

// FloodScratch is the working memory of a flood, kept by the caller so
// that a batch of floods allocates only until its buffers have grown to
// the largest reach. The zero value is ready for use, on topologies of
// any size; a scratch serves one flood at a time.
type FloodScratch struct {
	// marked holds the nodes that received the latest flood's query.
	marked stampSet
	// frontier and next are the nodes at the current and the next
	// depth; reached backs FloodStats.Reached.
	frontier, next, reached []int
}

// Flood performs a Gnutella-style broadcast from origin with the given
// TTL. TTL 0 reaches only the origin. It is FloodWith on a scratch of
// its own, for the caller with one flood to run.
func (t *Topology) Flood(origin, ttl int) (FloodStats, error) {
	return t.FloodWith(new(FloodScratch), origin, ttl)
}

// FloodWith is Flood on the caller's scratch.
func (t *Topology) FloodWith(s *FloodScratch, origin, ttl int) (FloodStats, error) {
	if origin < 0 || origin >= len(t.adj) {
		return FloodStats{}, fmt.Errorf("gnutella: origin %d out of range", origin)
	}
	if ttl < 0 {
		return FloodStats{}, fmt.Errorf("gnutella: negative TTL %d", ttl)
	}
	s.marked.reset(len(t.adj))
	mark, gen := s.marked.stamp, s.marked.gen
	mark[origin] = gen
	reached := append(s.reached[:0], origin)
	frontier, next := append(s.frontier[:0], origin), s.next
	messages := 0
	for d := 0; d < ttl && len(frontier) > 0; d++ {
		next = next[:0]
		for _, v := range frontier {
			// v forwards to all neighbors except the one it came from
			// (approximated as degree-1 for non-origin nodes); every
			// such transmission is a message, duplicate or not.
			out := len(t.adj[v])
			if v != origin {
				out--
			}
			messages += out
			for _, w := range t.adj[v] {
				if mark[w] != gen {
					mark[w] = gen
					next = append(next, w)
				}
			}
		}
		reached = append(reached, next...)
		frontier, next = next, frontier
	}
	s.reached, s.frontier, s.next = reached, frontier, next
	return FloodStats{Reached: reached, Messages: messages}, nil
}

// FloodSearch floods a query from origin over the topology on the
// caller's scratch and counts results among reached peers using the
// population's libraries. The topology and population must have the
// same size.
func FloodSearch(t *Topology, p *Population, r *simrng.RNG, s *FloodScratch, origin, ttl int, desired int) (SearchResult, FloodStats, error) {
	if t.NumNodes() != p.Size() {
		return SearchResult{}, FloodStats{}, fmt.Errorf(
			"gnutella: topology has %d nodes, population %d", t.NumNodes(), p.Size())
	}
	return floodSearchItem(t, p, s, p.universe.DrawQuery(r), origin, ttl, desired)
}

// floodSearchItem is FloodSearch for a given target: the reached peers
// that hold item are the marked entries of its holder list, so a query
// costs its flood plus that list, not a library lookup per reached
// peer.
func floodSearchItem(t *Topology, p *Population, s *FloodScratch, item content.ItemID, origin, ttl, desired int) (SearchResult, FloodStats, error) {
	stats, err := t.FloodWith(s, origin, ttl)
	if err != nil {
		return SearchResult{}, FloodStats{}, err
	}
	res := SearchResult{Probes: len(stats.Reached)}
	for _, v := range p.holdersOf(item) {
		if s.marked.has(int(v)) {
			res.Results++
		}
	}
	res.Satisfied = res.Results >= desired
	return res, stats, nil
}
