// Package overlay analyzes the "conceptual overlay" of a GUESS
// network: the directed graph whose nodes are live peers and whose
// edges are link-cache entries pointing at live peers (Figure 2 of the
// paper). The paper's connectivity experiments (Figures 6 and 7)
// measure the size of the largest connected component of this graph as
// the ping interval and cache size vary.
//
// Connectivity here means weak connectivity: a peer belongs to the
// network if information can circulate between it and the rest of the
// overlay ignoring edge direction, which is the sense in which a
// fragmented overlay "cannot heal".
package overlay

import (
	"fmt"
	"math"
)

// WCCScratch is a reusable union-find for repeated largest-WCC
// computations over index-identified nodes. A simulator that samples
// connectivity every few virtual seconds resets one WCCScratch per
// sample instead of building a graph, so steady-state sampling does not
// allocate (the backing arrays grow once to the high-water mark).
//
// Nodes are indices in [0, n); the caller supplies its own
// index-to-peer mapping (a simulation engine already has one). The
// index space may have holes: Drop takes a node out of the snapshot,
// and Has then answers for it as for an index out of range, so an
// engine can use its sparse peer IDs as indices and ask the scratch
// which addresses are live. The zero value is ready to use after Reset.
type WCCScratch struct {
	// parent[i] is i's parent in its component's tree (i itself at a
	// root), or absent; size counts the nodes under a root. int32 halves
	// the memory a find walks through; Reset rejects a wider n.
	parent, size []int32
}

// absent is the parent of a dropped node.
const absent = -1

// Reset prepares the scratch for a snapshot of n nodes, each initially
// present and its own component.
func (s *WCCScratch) Reset(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("overlay: WCCScratch of %d nodes", n))
	}
	if cap(s.parent) < n {
		s.parent = make([]int32, n)
		s.size = make([]int32, n)
	}
	s.parent = s.parent[:n]
	s.size = s.size[:n]
	for i := range s.parent {
		s.parent[i] = int32(i)
		s.size[i] = 1
	}
}

// Drop takes node i out of the snapshot. Only a node that no Union has
// touched since Reset may be dropped.
func (s *WCCScratch) Drop(i int) {
	s.parent[i] = absent
	s.size[i] = 0
}

// Has reports whether i is a node of the snapshot: in range and not
// dropped.
func (s *WCCScratch) Has(i int) bool {
	return uint(i) < uint(len(s.parent)) && s.parent[i] != absent
}

// Union merges the components of nodes a and b (an undirected edge:
// weak connectivity ignores direction). Self-loops are no-ops. Both
// nodes must be in the snapshot.
func (s *WCCScratch) Union(a, b int) {
	ra, rb := s.find(int32(a)), s.find(int32(b))
	if ra == rb {
		return
	}
	if s.size[ra] < s.size[rb] {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
}

// Largest returns the size of the largest component (0 when no node is
// present).
func (s *WCCScratch) Largest() int {
	best := int32(0)
	for i, p := range s.parent {
		if int(p) == i && s.size[i] > best {
			best = s.size[i]
		}
	}
	return int(best)
}

// find is weighted quick-union's root lookup, with path halving.
func (s *WCCScratch) find(x int32) int32 {
	parent := s.parent
	for {
		p := parent[x]
		if p == x {
			return x
		}
		gp := parent[p]
		parent[x] = gp
		x = gp
	}
}
