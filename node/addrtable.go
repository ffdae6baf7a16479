package node

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"net/netip"

	"repro/internal/cache"
)

// addrTable numbers the addresses a node refers to: the link cache, the
// query cache and peer health all name a peer by a dense cache.PeerID,
// and the table maps between the two. IDs are dense from 1 and 0 names
// no address.
//
// addrs is the ID → address array. Beside it idx, the address → ID
// index, is open-addressed: power-of-two length, linear probing, at
// most half full, 0 marking an empty slot. A lookup hashes the address
// once, probes, and confirms a slot's ID with addrs[id] == addr, so the
// whole AddrPort, zone included, must match.
//
// A node hears a new address in every pong and from every requester,
// so IDs are reclaimed: sweep frees every ID outside a keep-set its
// caller gathers, and add hands freed IDs out again before it appends.
// due tells the caller when to sweep: once the numbered addresses reach
// sweepAt, which starts at a floor and after each sweep is twice what
// the sweep kept (or the floor, if higher), so the table holds at most
// about twice what its caller references and a sweep's cost, linear in
// the table, is paid for by the adds since the last one.
type addrTable struct {
	// addrs[id] is the address numbered id, the invalid AddrPort for a
	// free ID; addrs[0] is unused.
	addrs []netip.AddrPort
	idx   []cache.PeerID
	// free holds the freed IDs add has not handed out again, highest
	// first, so add reuses the lowest.
	free []cache.PeerID
	// live is the number of numbered addresses.
	live int
	// sweepAt is the live count at which due asks for a sweep; floor is
	// its least value.
	sweepAt, floor int
	// maxID is the last ID add hands out: math.MaxInt32, lower only in
	// tests.
	maxID cache.PeerID
	// k0, k1 key the hash. They are drawn at random per table, like a Go
	// map's seed, so a peer that knows the hash cannot pick addresses
	// that all probe the same chain. No decision depends on them: IDs
	// are handed out in the order addresses are numbered.
	k0, k1 uint64
}

// minIdx is the least index length: room for 8 addresses.
const minIdx = 16

func newAddrTable(floor int, maxID cache.PeerID) *addrTable {
	seed := maphash.MakeSeed()
	return &addrTable{
		addrs:   make([]netip.AddrPort, 1),
		idx:     make([]cache.PeerID, minIdx),
		sweepAt: floor,
		floor:   floor,
		maxID:   maxID,
		k0:      maphash.String(seed, "k0"),
		k1:      maphash.String(seed, "k1"),
	}
}

// hash mixes an address and its port into 64 bits whose low bits, the
// ones the index keeps, spread addresses that differ only in their port,
// their IPv4 address's last bytes or their IPv6 interface ID: a 128-bit
// product of the keyed halves of the address (the port in with the high
// half) folded in two, then multiplied by a constant and folded again.
// One product alone left sequential addresses on runs of up to 288
// slots (TestAddrTableSpread); the second brings them to what a random
// hash gives. The zone is left out: the confirming compare honours it.
func (t *addrTable) hash(ap netip.AddrPort) uint64 {
	var high, low uint64
	if a := ap.Addr(); a.Is4() {
		b := a.As4()
		low = uint64(binary.BigEndian.Uint32(b[:]))
	} else {
		b := a.As16()
		high, low = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	}
	hi, lo := bits.Mul64(low^t.k0, high^uint64(ap.Port())^t.k1)
	hi, lo = bits.Mul64(hi^lo, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

// lookup returns ap's ID, 0 if ap is not numbered.
func (t *addrTable) lookup(ap netip.AddrPort) cache.PeerID {
	mask := uint64(len(t.idx) - 1)
	for i := t.hash(ap) & mask; ; i = (i + 1) & mask {
		if id := t.idx[i]; id == 0 || t.addrs[id] == ap {
			return id
		}
	}
}

// due reports whether the caller should sweep before it numbers one
// more address.
func (t *addrTable) due() bool { return t.live >= t.sweepAt }

// add numbers ap, which lookup has just reported unnumbered, with the
// lowest free ID or else the next new one. It returns 0, numbering
// nothing, for an invalid address or when maxID addresses are numbered
// and none is free.
func (t *addrTable) add(ap netip.AddrPort) cache.PeerID {
	var id cache.PeerID
	switch {
	case !ap.IsValid():
		return 0
	case len(t.free) > 0:
		id, t.free = t.free[len(t.free)-1], t.free[:len(t.free)-1]
		t.addrs[id] = ap
	case len(t.addrs) > int(t.maxID):
		return 0
	default:
		id = cache.PeerID(len(t.addrs))
		t.addrs = append(t.addrs, ap)
	}
	t.live++
	if 2*t.live > len(t.idx) {
		t.reindex(2 * len(t.idx))
	} else {
		t.insert(id)
	}
	return id
}

// insert puts id in the first empty slot of its address's chain.
func (t *addrTable) insert(id cache.PeerID) {
	mask := uint64(len(t.idx) - 1)
	i := t.hash(t.addrs[id]) & mask
	for t.idx[i] != 0 {
		i = (i + 1) & mask
	}
	t.idx[i] = id
}

// reindex rebuilds idx at length size from the numbered IDs.
func (t *addrTable) reindex(size int) {
	if len(t.idx) == size {
		clear(t.idx)
	} else {
		t.idx = make([]cache.PeerID, size)
	}
	for id := 1; id < len(t.addrs); id++ {
		if t.addrs[id].IsValid() {
			t.insert(cache.PeerID(id))
		}
	}
}

// sweep frees every numbered ID not in keep (IDs in keep that are not
// numbered are ignored): its address is forgotten and the ID goes on
// the free list, or off the end of addrs if no kept ID is above it. A
// kept address keeps its ID. It returns the number kept.
func (t *addrTable) sweep(keep []cache.PeerID) int {
	marks := make([]uint64, (len(t.addrs)+63)/64)
	for _, id := range keep {
		if id > 0 && int(id) < len(t.addrs) {
			marks[id/64] |= 1 << (id % 64)
		}
	}
	isKept := func(id int) bool { return marks[id/64]&(1<<(id%64)) != 0 && t.addrs[id].IsValid() }
	kept, top := 0, 0
	for id := 1; id < len(t.addrs); id++ {
		if isKept(id) {
			kept, top = kept+1, id
		}
	}
	t.free = t.free[:0]
	for id := len(t.addrs) - 1; id >= 1; id-- {
		if isKept(id) {
			continue
		}
		t.addrs[id] = netip.AddrPort{}
		if id < top {
			t.free = append(t.free, cache.PeerID(id))
		}
	}
	t.addrs = t.addrs[:top+1]
	// Give back the array a burst of addresses grew, once it is mostly
	// unused; the next sweep is due at twice what is kept.
	if cap(t.addrs) > 4*len(t.addrs) && cap(t.addrs) > minIdx {
		t.addrs = append(make([]netip.AddrPort, 0, 2*len(t.addrs)), t.addrs...)
	}
	t.live = kept
	t.sweepAt = max(t.floor, 2*kept)
	size := minIdx
	for size < 2*(kept+1) {
		size *= 2
	}
	t.reindex(size)
	return kept
}
