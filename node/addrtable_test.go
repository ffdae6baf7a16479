package node

import (
	"encoding/binary"
	"math"
	"net/netip"
	"testing"

	"repro/internal/cache"
	"repro/internal/simrng"
)

// tableModel is the reference addrTable is held to: a map each way and
// a free list, numbering with the lowest free ID, else the next new one,
// and sweeping by forgetting every unkept address and cutting the IDs
// above the highest kept one off the end.
type tableModel struct {
	ids   map[netip.AddrPort]cache.PeerID
	addrs map[cache.PeerID]netip.AddrPort
	free  []cache.PeerID // ascending
	next  cache.PeerID
	maxID cache.PeerID
}

func newTableModel(maxID cache.PeerID) *tableModel {
	return &tableModel{
		ids:   map[netip.AddrPort]cache.PeerID{},
		addrs: map[cache.PeerID]netip.AddrPort{},
		next:  1,
		maxID: maxID,
	}
}

func (m *tableModel) number(ap netip.AddrPort) cache.PeerID {
	if id, ok := m.ids[ap]; ok {
		return id
	}
	var id cache.PeerID
	switch {
	case len(m.free) > 0:
		id, m.free = m.free[0], m.free[1:]
	case m.next > m.maxID:
		return 0
	default:
		id = m.next
		m.next++
	}
	m.ids[ap], m.addrs[id] = id, ap
	return id
}

func (m *tableModel) sweep(keep []cache.PeerID) int {
	keepSet := map[cache.PeerID]bool{}
	for _, id := range keep {
		keepSet[id] = true
	}
	top := cache.PeerID(0)
	for id, ap := range m.addrs {
		if keepSet[id] {
			top = max(top, id)
			continue
		}
		delete(m.addrs, id)
		delete(m.ids, ap)
	}
	m.free = m.free[:0]
	for id := cache.PeerID(1); id < top; id++ {
		if _, ok := m.addrs[id]; !ok {
			m.free = append(m.free, id)
		}
	}
	m.next = top + 1
	return len(m.addrs)
}

// fuzzAddr maps two bytes to an address in one of four families, so a
// script revisits addresses: IPv4 addresses differing in their last two
// bytes, IPv4 addresses differing mostly in the port, IPv6 addresses
// differing in the interface ID, and link-local IPv6 addresses that
// differ only in their zone.
func fuzzAddr(x uint16) netip.AddrPort {
	v := x / 4
	switch x % 4 {
	case 0:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(v >> 8), byte(v)}), 6346)
	case 1:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, 0, byte(v & 3)}), 7000+v>>2)
	case 2:
		var b [16]byte
		b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		binary.BigEndian.PutUint16(b[14:], v)
		return netip.AddrPortFrom(netip.AddrFrom16(b), 6346)
	default:
		a := netip.AddrFrom16([16]byte{0: 0xfe, 1: 0x80, 15: byte(v & 7)})
		return netip.AddrPortFrom(a.WithZone([]string{"eth0", "eth1"}[v>>3&1]), 6346)
	}
}

// freshAddr is the n-th address of a range fuzzAddr never reaches.
func freshAddr(n uint32) netip.AddrPort {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], 198<<24|18<<16+n)
	return netip.AddrPortFrom(netip.AddrFrom4(b), uint16(n))
}

// FuzzAddrTable runs a script of table operations against tableModel,
// call for call: number an address, look one up, sweep with a keep-set
// (numbered IDs picked by the script, and an ID that may be free or out
// of range), make the table full or lift that, and number a burst of
// new addresses. After every call the table must agree with the model,
// and so: a kept address keeps its ID, a freed ID is handed out again
// only after the sweep that freed it, no two numbered addresses share
// an ID, and a full table answers 0.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 4, 1, 2, 5, 0xaa, 0, 0, 9, 9})
	f.Add([]byte{7, 200, 0, 5, 0x55, 7, 40, 0, 6, 0, 0, 1, 1, 0, 7, 8, 8, 6, 1, 0, 5, 0, 0})
	f.Add([]byte{7, 30, 0, 6, 0, 0, 5, 0x0f, 0, 0, 4, 4, 7, 10, 0, 2, 0xff, 0xff, 3, 0xff, 0xfb})
	f.Fuzz(func(t *testing.T, script []byte) {
		const maxID = 1 << 20
		tab := newAddrTable(1<<30, maxID) // sweeps only when the script asks
		m := newTableModel(maxID)
		fresh := uint32(0)
		number := func(ap netip.AddrPort) {
			want := m.number(ap)
			got := tab.lookup(ap)
			if got == 0 {
				got = tab.add(ap)
			}
			if got != want {
				t.Fatalf("number %v: ID %d, model %d", ap, got, want)
			}
		}
		// checkTable is linear in the table: 256 calls, a burst of at
		// most 63, keep an input's cost near a millisecond.
		script = script[:min(len(script), 3*256)]
		for len(script) >= 3 {
			op, a, b := script[0], script[1], script[2]
			script = script[3:]
			switch op % 8 {
			case 0, 1, 2, 3:
				number(fuzzAddr(uint16(a)<<8 | uint16(b)))
			case 4:
				ap := fuzzAddr(uint16(a)<<8 | uint16(b))
				if got, want := tab.lookup(ap), m.ids[ap]; got != want {
					t.Fatalf("lookup %v: %d, model %d", ap, got, want)
				}
			case 5:
				// Keep each numbered ID whose bit in a, b is set, and
				// offer b as an ID too, which may be free or past the end.
				bits := uint16(a)<<8 | uint16(b)
				keep := []cache.PeerID{cache.PeerID(b)}
				kept := map[netip.AddrPort]cache.PeerID{}
				for id, ap := range m.addrs {
					if bits>>(id%16)&1 != 0 || id == cache.PeerID(b) {
						keep = append(keep, id)
						kept[ap] = id
					}
				}
				if got, want := tab.sweep(keep), m.sweep(keep); got != want {
					t.Fatalf("sweep kept %d, model %d", got, want)
				}
				for ap, id := range kept {
					if got := tab.lookup(ap); got != id {
						t.Fatalf("kept %v: ID %d after the sweep, %d before", ap, got, id)
					}
				}
			case 6:
				if a%2 == 1 {
					tab.maxID, m.maxID = maxID, maxID
					break
				}
				// Full: no ID past the ones handed out, only free ones;
				// the one after the last free one answers 0.
				if int(m.next-1) != len(tab.addrs)-1 {
					t.Fatalf("%d IDs handed out, model %d", len(tab.addrs)-1, m.next-1)
				}
				tab.maxID, m.maxID = m.next-1, m.next-1
				for range len(m.free) + 1 {
					fresh++
					number(freshAddr(fresh))
				}
				if got := tab.add(freshAddr(fresh + 1)); got != 0 {
					t.Fatalf("a full table numbered a new address %d", got)
				}
			case 7:
				for range a % 64 {
					fresh++
					number(freshAddr(fresh))
				}
			}
			checkTable(t, tab, m)
		}
	})
}

// checkTable fails t unless tab holds what m does, through both of its
// maps, and its index is a power of two long, at most half full.
func checkTable(t *testing.T, tab *addrTable, m *tableModel) {
	t.Helper()
	if tab.live != len(m.ids) || len(m.addrs) != len(m.ids) {
		t.Fatalf("%d addresses numbered, model %d (%d IDs)", tab.live, len(m.ids), len(m.addrs))
	}
	for ap, id := range m.ids {
		if got := tab.lookup(ap); got != id || tab.addrs[id] != ap {
			t.Fatalf("%v: lookup %d, addrs[%d] = %v; model %d", ap, got, id, tab.addrs[id], id)
		}
	}
	valid := 0
	for _, ap := range tab.addrs {
		if ap.IsValid() {
			valid++
		}
	}
	used := 0
	for _, id := range tab.idx {
		if id != 0 {
			used++
		}
	}
	if valid != tab.live || used != tab.live || 2*used > len(tab.idx) || len(tab.idx)&(len(tab.idx)-1) != 0 {
		t.Fatalf("%d addresses held, %d in an index of %d slots, %d numbered", valid, used, len(tab.idx), tab.live)
	}
}

// longestRun is the most slots any numbered address's lookup probes.
func longestRun(tab *addrTable) int {
	mask := uint64(len(tab.idx) - 1)
	longest := 0
	for i, id := range tab.idx {
		if id != 0 {
			home := tab.hash(tab.addrs[id]) & mask
			longest = max(longest, int((uint64(i)-home)&mask)+1)
		}
	}
	return longest
}

// TestAddrTableSpread numbers 10 000 addresses that differ in one part
// only: the port, an IPv4 address's low bytes, an IPv6 interface ID. A
// hash that kept that part out of the bits the index masks would put
// them all on one probe chain. The longest chain, on each of 20 keys,
// must stay near what a random hash gives (8-18 at this load, 0.31),
// and below what a single 128-bit multiply left there (up to 288).
func TestAddrTableSpread(t *testing.T) {
	const n, longest = 10_000, 32
	sets := []struct {
		name string
		addr func(i int) netip.AddrPort
	}{
		{"port", func(i int) netip.AddrPort {
			return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), uint16(1024+i))
		}},
		{"IPv4 low bytes", func(i int) netip.AddrPort {
			return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), 6346)
		}},
		{"IPv6 interface ID", func(i int) netip.AddrPort {
			var b [16]byte
			b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
			binary.BigEndian.PutUint64(b[8:], uint64(i))
			return netip.AddrPortFrom(netip.AddrFrom16(b), 6346)
		}},
	}
	rng := simrng.New(1)
	for _, set := range sets {
		for key := 0; key < 20; key++ {
			tab := newAddrTable(n, math.MaxInt32)
			tab.k0, tab.k1 = rng.Uint64(), rng.Uint64()
			for i := 0; i < n; i++ {
				tab.add(set.addr(i))
			}
			if run := longestRun(tab); run > longest {
				t.Errorf("%s, key %d: a lookup probes %d slots of %d, want at most %d", set.name, key, run, len(tab.idx), longest)
			}
		}
	}
}
