// Package gnutella implements the forwarding-based baselines the paper
// compares GUESS against (Figure 8):
//
//   - fixed-extent search, the Gnutella abstraction: every query
//     reaches a fixed number of peers regardless of how popular the
//     target is, so cost never adapts;
//   - iterative deepening (Yang & Garcia-Molina, ICDCS 2002): coarse
//     batches of peers are probed round by round until the query is
//     satisfied;
//   - true TTL flooding over a generated random overlay topology, used
//     for validation and for the message-amplification comparison the
//     paper makes qualitatively in Section 3.
//
// The baselines share the GUESS content model, so Figure 8's cost /
// quality trade-off is apples-to-apples.
package gnutella

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/policy"
	"repro/internal/simrng"
)

// Population is a churn-free set of peer libraries used to evaluate
// search mechanisms in isolation from cache maintenance. (Flooding
// reaches only live peers, so a live snapshot is the fair baseline.)
// The libraries never change, but a search keeps working state here: a
// Population serves one goroutine at a time.
type Population struct {
	universe *content.Universe
	libs     []content.Library

	// The item -> peers index behind FloodSearch, built by the first
	// search that needs it: item it is held by
	// holders[holderOff[it]:holderOff[it+1]], ascending.
	holderOff []int32
	holders   []int32

	// sc draws the peers a search reaches; the slice it returns is its
	// own, overwritten by the next draw.
	sc policy.Scratch
}

// NewPopulation samples n peers' libraries from the universe.
func NewPopulation(u *content.Universe, n int, r *simrng.RNG) (*Population, error) {
	if n < 1 {
		return nil, fmt.Errorf("gnutella: population must have at least 1 peer, got %d", n)
	}
	libs := make([]content.Library, n)
	for i := range libs {
		libs[i] = u.NewLibrary(r, u.SampleLibrarySize(r))
	}
	return &Population{universe: u, libs: libs}, nil
}

// Size returns the number of peers.
func (p *Population) Size() int { return len(p.libs) }

// Universe returns the shared content universe.
func (p *Population) Universe() *content.Universe { return p.universe }

// SearchResult reports one query's outcome under a baseline mechanism.
type SearchResult struct {
	// Probes is the number of peers that received the query.
	Probes int
	// Results is the number of results found.
	Results int
	// Satisfied reports whether Results reached the desired count.
	Satisfied bool
}

// holdersOf returns the peers whose library holds item, ascending (none
// for NoItem), building the index on first use.
func (p *Population) holdersOf(item content.ItemID) []int32 {
	if item < 0 {
		return nil
	}
	if p.holderOff == nil {
		p.indexHolders()
	}
	return p.holders[p.holderOff[item]:p.holderOff[item+1]]
}

// indexHolders builds the item -> peers index in two passes over the
// libraries: one to count each item's holders, one to place them.
func (p *Population) indexHolders() {
	off := make([]int32, p.universe.NumItems()+1)
	var items []content.ItemID
	total := 0
	for _, lib := range p.libs {
		items = lib.AppendItems(items[:0])
		total += len(items)
		for _, it := range items {
			off[it+1]++
		}
	}
	for it := 1; it < len(off); it++ {
		off[it] += off[it-1]
	}
	// Placing advances off[it] to the end of item it's range, which is
	// the start of item it+1's: shifting back by one restores it.
	holders := make([]int32, total)
	for v, lib := range p.libs {
		items = lib.AppendItems(items[:0])
		for _, it := range items {
			holders[off[it]] = int32(v)
			off[it]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	p.holderOff, p.holders = off, holders
}

// FixedExtent runs one fixed-extent query: the query reaches exactly
// extent random peers (the set a Gnutella TTL would cover), costing
// extent probes no matter when results appear.
func (p *Population) FixedExtent(r *simrng.RNG, item content.ItemID, extent, desired int) SearchResult {
	if extent < 1 {
		extent = 1
	}
	res := SearchResult{}
	for _, i := range p.sc.SampleIndices(r, len(p.libs), extent) {
		res.Probes++
		res.Results += p.libs[i].Results(item)
	}
	res.Satisfied = res.Results >= desired
	return res
}

// IterativeDeepening probes successive batches of previously unprobed
// random peers, stopping after any batch that satisfies the query.
// batches lists each round's size; the paper describes rounds of
// "many peers (e.g., hundreds)".
func (p *Population) IterativeDeepening(r *simrng.RNG, item content.ItemID, batches []int, desired int) SearchResult {
	res := SearchResult{}
	total := 0
	for _, b := range batches {
		total += b
	}
	if total > len(p.libs) {
		total = len(p.libs)
	}
	order := p.sc.SampleIndices(r, len(p.libs), total)
	next := 0
	for _, b := range batches {
		for i := 0; i < b && next < len(order); i++ {
			res.Probes++
			res.Results += p.libs[order[next]].Results(item)
			next++
		}
		if res.Results >= desired {
			res.Satisfied = true
			return res
		}
	}
	res.Satisfied = res.Results >= desired
	return res
}

// DefaultDeepeningBatches is the default iterative-deepening policy:
// coarse rounds growing toward full coverage of a 1000-peer network.
func DefaultDeepeningBatches(networkSize int) []int {
	// Rounds at roughly 10%, +20%, +30%, remainder.
	b1 := networkSize / 10
	b2 := networkSize / 5
	b3 := (3 * networkSize) / 10
	b4 := networkSize - b1 - b2 - b3
	return []int{b1, b2, b3, b4}
}
