package core

import (
	"repro/internal/cache"
	"repro/internal/content"
)

// peerStore is the engine's struct-of-arrays peer state. A live peer is
// a slot — an index into a set of parallel arrays — and byID maps a
// PeerID to its slot (or -1). Compared to the former
// map[PeerID]*peer layout this removes one heap object and one pointer
// dereference per peer, keeps the sampling and connectivity scans on
// contiguous memory, and lets a million-peer population fit in a
// handful of flat allocations sized once from Params.NetworkSize.
//
// Slot discipline: births append at the end; a death swap-removes its
// slot (the last slot's peer moves into the freed one). Slots are
// therefore stable only between births/deaths — which the engine
// exploits, because peers are born and die exclusively inside
// handleDeath and bootstrap; every other event handler can hold slot
// indices (and even &ps.link[slot] pointers) for its whole duration.
// The swap-remove + append dance also reproduces exactly the peer
// ordering of the previous []*peer implementation, which the
// rngChurn-driven friend choice observes; the goldens pin that.
type peerStore struct {
	// byID maps a PeerID to its slot; -1 for dead or never-born IDs.
	// IDs are assigned monotonically from 1 and never reused, so the
	// table only appends (index 0 is a permanent -1 sentinel).
	// Fabricated addresses (>= fakeAddrBase) fall outside the table and
	// resolve to -1 via the bounds check in slotOf.
	byID []int32

	// Slot-parallel arrays; len(id) is the live population.
	id              []cache.PeerID
	advertisedFiles []int32
	malicious       []bool
	selfish         []bool
	lib             []content.Library
	link            []cache.LinkCache
	winStart        []float64
	winCount        []int32
	probesReceived  []int64

	// rare is the slot-parallel poison-detection and back-off state. Most
	// configurations never touch it, so the array itself waits for the
	// first write (rareFor): nil, or as long as id.
	rare []rareState
}

// rareState is one peer's poison-detection and back-off maps, each nil
// until first use.
type rareState struct {
	provenance map[cache.PeerID]cache.PeerID
	pongStats  map[cache.PeerID]supplierRecord
	blacklist  map[cache.PeerID]bool
	suppressed map[cache.PeerID]float64
}

// rareFor returns slot p's rare state for writing, making the array on
// the first call. Readers check ps.rare for nil instead.
func (ps *peerStore) rareFor(p int) *rareState {
	if ps.rare == nil {
		ps.rare = make([]rareState, len(ps.id), cap(ps.id))
	}
	return &ps.rare[p]
}

// init sizes every array for a population of n and empties the store.
// Storage already allocated (a recycled engine's) is kept.
func (ps *peerStore) init(n int) {
	if cap(ps.byID) == 0 {
		ps.byID = make([]int32, 1, 2*n+1)
		ps.byID[0] = -1
		ps.id = make([]cache.PeerID, 0, n)
		ps.advertisedFiles = make([]int32, 0, n)
		ps.malicious = make([]bool, 0, n)
		ps.selfish = make([]bool, 0, n)
		ps.lib = make([]content.Library, 0, n)
		ps.link = make([]cache.LinkCache, 0, n)
		ps.winStart = make([]float64, 0, n)
		ps.winCount = make([]int32, 0, n)
		ps.probesReceived = make([]int64, 0, n)
		return
	}
	ps.byID = ps.byID[:1]
	ps.byID[0] = -1
	ps.truncate(0)
}

// truncate cuts every slot array to n entries, zeroing the
// pointer-bearing tails so dropped peers do not pin their storage.
func (ps *peerStore) truncate(n int) {
	for i := n; i < len(ps.id); i++ {
		ps.lib[i] = content.Library{}
		ps.link[i] = cache.LinkCache{}
		if ps.rare != nil {
			ps.rare[i] = rareState{}
		}
	}
	ps.id = ps.id[:n]
	ps.advertisedFiles = ps.advertisedFiles[:n]
	ps.malicious = ps.malicious[:n]
	ps.selfish = ps.selfish[:n]
	ps.lib = ps.lib[:n]
	ps.link = ps.link[:n]
	ps.winStart = ps.winStart[:n]
	ps.winCount = ps.winCount[:n]
	ps.probesReceived = ps.probesReceived[:n]
	if ps.rare != nil {
		ps.rare = ps.rare[:n]
	}
}

// len returns the live population.
func (ps *peerStore) len() int { return len(ps.id) }

// slotOf resolves an address to its slot, or -1 when the peer is dead,
// never existed, or the address is fabricated (out of table range).
func (ps *peerStore) slotOf(addr cache.PeerID) int {
	if addr < 0 || int64(addr) >= int64(len(ps.byID)) {
		return -1
	}
	return int(ps.byID[addr])
}

// grow appends one zero-valued slot to every array and returns its
// index. The caller fills the fields and registers the ID in byID.
func (ps *peerStore) grow() int {
	slot := len(ps.id)
	ps.id = append(ps.id, 0)
	ps.advertisedFiles = append(ps.advertisedFiles, 0)
	ps.malicious = append(ps.malicious, false)
	ps.selfish = append(ps.selfish, false)
	ps.lib = append(ps.lib, content.Library{})
	ps.link = append(ps.link, cache.LinkCache{})
	ps.winStart = append(ps.winStart, 0)
	ps.winCount = append(ps.winCount, 0)
	ps.probesReceived = append(ps.probesReceived, 0)
	if ps.rare != nil {
		ps.rare = append(ps.rare, rareState{})
	}
	return slot
}

// swapRemove frees a slot by moving the last slot's peer into it and
// truncating. The caller must have captured any fields of the dying
// peer it still needs and cleared its byID entry beforehand.
func (ps *peerStore) swapRemove(slot int) {
	last := len(ps.id) - 1
	if slot != last {
		ps.id[slot] = ps.id[last]
		ps.advertisedFiles[slot] = ps.advertisedFiles[last]
		ps.malicious[slot] = ps.malicious[last]
		ps.selfish[slot] = ps.selfish[last]
		ps.lib[slot] = ps.lib[last]
		ps.link[slot] = ps.link[last]
		ps.winStart[slot] = ps.winStart[last]
		ps.winCount[slot] = ps.winCount[last]
		ps.probesReceived[slot] = ps.probesReceived[last]
		if ps.rare != nil {
			ps.rare[slot] = ps.rare[last]
		}
		ps.byID[ps.id[slot]] = int32(slot)
	}
	ps.truncate(last)
}
