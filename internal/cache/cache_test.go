package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/simrng"
)

func TestNewLinkCachePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLinkCache(0) did not panic")
		}
	}()
	NewLinkCache(0)
}

func TestAddAndGet(t *testing.T) {
	c := NewLinkCache(3)
	e := Entry{Addr: 7, TS: 1.5, NumFiles: 10, NumRes: 2, Direct: true}
	if !c.Add(e) {
		t.Fatal("Add failed on empty cache")
	}
	got, ok := c.Get(7)
	if !ok || got != e {
		t.Fatalf("Get(7) = %+v, %v", got, ok)
	}
	if c.Len() != 1 || c.Full() {
		t.Fatalf("Len=%d Full=%v after one add", c.Len(), c.Full())
	}
	c.checkInvariants()
}

func TestAddRejectsDuplicates(t *testing.T) {
	c := NewLinkCache(3)
	c.Add(Entry{Addr: 1, NumFiles: 5})
	if c.Add(Entry{Addr: 1, NumFiles: 99}) {
		t.Fatal("duplicate address accepted")
	}
	got, _ := c.Get(1)
	if got.NumFiles != 5 {
		t.Fatal("duplicate add overwrote existing entry")
	}
}

func TestAddRejectsWhenFull(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 1})
	c.Add(Entry{Addr: 2})
	if c.Add(Entry{Addr: 3}) {
		t.Fatal("Add succeeded on full cache")
	}
	if !c.Full() {
		t.Fatal("cache not reported full")
	}
}

func TestReplaceAt(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 1})
	c.Add(Entry{Addr: 2})
	alias := c.Entries()
	c.ReplaceAt(0, Entry{Addr: 3, NumFiles: 9})
	if c.Has(1) {
		t.Fatal("evicted entry still present")
	}
	got, ok := c.Get(3)
	if !ok || got.NumFiles != 9 {
		t.Fatalf("replacement missing: %+v %v", got, ok)
	}
	// Entries() is the cache's storage, not a copy.
	if alias[0].Addr != 3 {
		t.Fatalf("Entries() result should alias internal storage, got %+v", alias[0])
	}
	c.checkInvariants()
}

func TestReplaceAtSameAddrSameSlot(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 1, NumFiles: 1})
	c.ReplaceAt(0, Entry{Addr: 1, NumFiles: 42})
	got, _ := c.Get(1)
	if got.NumFiles != 42 {
		t.Fatal("in-place replace failed")
	}
	c.checkInvariants()
}

func TestReplaceAtPanicsOnDuplicate(t *testing.T) {
	c := NewLinkCache(3)
	c.Add(Entry{Addr: 1})
	c.Add(Entry{Addr: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("ReplaceAt duplicating an addr did not panic")
		}
	}()
	c.ReplaceAt(0, Entry{Addr: 2})
}

func TestReplaceAtPanicsOutOfRange(t *testing.T) {
	c := NewLinkCache(3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ReplaceAt did not panic")
		}
	}()
	c.ReplaceAt(0, Entry{Addr: 1})
}

func TestRemove(t *testing.T) {
	c := NewLinkCache(4)
	for i := PeerID(1); i <= 4; i++ {
		c.Add(Entry{Addr: i})
	}
	if !c.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if c.Remove(2) {
		t.Fatal("second Remove(2) succeeded")
	}
	if c.Len() != 3 || c.Has(2) {
		t.Fatal("entry still present after removal")
	}
	for _, id := range []PeerID{1, 3, 4} {
		if !c.Has(id) {
			t.Fatalf("entry %d lost by unrelated removal", id)
		}
	}
	c.checkInvariants()
}

func TestTouchAndSetNumRes(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 5, TS: 1})
	c.Touch(5, 9.5)
	if e, _ := c.Get(5); e.TS != 9.5 {
		t.Fatalf("Touch: TS = %v", e.TS)
	}
	c.SetNumRes(5, 3)
	if e, _ := c.Get(5); e.NumRes != 3 || !e.Direct {
		t.Fatalf("SetNumRes: %+v", e)
	}
	// No-ops on absent addresses.
	c.Touch(99, 1)
	c.SetNumRes(99, 1)
	c.checkInvariants()
}

// TestLinkCacheProperty drives a random operation sequence and checks
// the cache never exceeds capacity, never duplicates addresses, and
// keeps its index consistent.
func TestLinkCacheProperty(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLinkCache(capacity)
		r := simrng.New(42)
		for _, op := range ops {
			addr := PeerID(op % 23)
			switch op % 4 {
			case 0, 1:
				c.Add(Entry{Addr: addr, TS: float64(op)})
			case 2:
				c.Remove(addr)
			case 3:
				if c.Len() > 0 {
					i := r.Intn(c.Len())
					// Replace only when it would not duplicate.
					if j := c.find(addr); j < 0 || j == i {
						c.ReplaceAt(i, Entry{Addr: addr})
					}
				}
			}
			c.checkInvariants()
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClearRetainsCapacityAndEmpties(t *testing.T) {
	c := NewLinkCache(3)
	for i := 1; i <= 3; i++ {
		c.Add(Entry{Addr: PeerID(i)})
	}
	c.Clear()
	c.checkInvariants()
	if c.Len() != 0 || c.Cap() != 3 || c.Full() {
		t.Fatalf("cleared cache: len=%d cap=%d full=%v", c.Len(), c.Cap(), c.Full())
	}
	if c.Has(1) {
		t.Fatal("cleared cache still has entry")
	}
	// Behaves like a fresh cache afterwards.
	for i := 4; i <= 6; i++ {
		if !c.Add(Entry{Addr: PeerID(i)}) {
			t.Fatalf("add %d after Clear failed", i)
		}
	}
	if !c.Full() {
		t.Fatal("refilled cache not full")
	}
	c.checkInvariants()
}

// TestLinkCacheIndexRegimesAgree drives a flat-indexed cache (capacity
// = linearIndexMax) and a slot-indexed one (capacity = linearIndexMax+1)
// through an identical randomized script. The address space is kept
// small enough that neither cache ever fills, so capacity cannot
// influence behavior and every observable — membership, entry fields,
// lengths — must agree between the two index implementations.
func TestLinkCacheIndexRegimesAgree(t *testing.T) {
	flat := NewLinkCache(linearIndexMax)
	slotted := NewLinkCache(linearIndexMax + 1)
	if flat.slots != nil || flat.tags == nil {
		t.Fatal("capacity <= linearIndexMax did not select the tag index")
	}
	if slotted.slots == nil || slotted.tags != nil {
		t.Fatal("capacity > linearIndexMax did not select the slot index")
	}
	r := simrng.New(7)
	const addrSpace = 48 // << both capacities: neither cache ever fills
	for step := 0; step < 20000; step++ {
		addr := PeerID(r.Intn(addrSpace))
		switch r.Intn(5) {
		case 0:
			a := flat.Add(Entry{Addr: addr, TS: float64(step)})
			b := slotted.Add(Entry{Addr: addr, TS: float64(step)})
			if a != b {
				t.Fatalf("step %d: Add(%d) flat=%v slots=%v", step, addr, a, b)
			}
		case 1:
			a := flat.Remove(addr)
			b := slotted.Remove(addr)
			if a != b {
				t.Fatalf("step %d: Remove(%d) flat=%v slots=%v", step, addr, a, b)
			}
		case 2:
			flat.Touch(addr, float64(step))
			slotted.Touch(addr, float64(step))
		case 3:
			flat.SetNumRes(addr, int32(step%7))
			slotted.SetNumRes(addr, int32(step%7))
		case 4:
			if flat.Len() > 0 {
				// ReplaceAt targets the slot holding a common address so
				// both caches mutate the same logical entry; skip when the
				// replacement would duplicate.
				victim := flat.entries[r.Intn(flat.Len())].Addr
				if flat.Has(addr) && addr != victim {
					continue
				}
				flat.ReplaceAt(flat.find(victim), Entry{Addr: addr, TS: float64(step)})
				slotted.ReplaceAt(slotted.find(victim), Entry{Addr: addr, TS: float64(step)})
			}
		}
		flat.checkInvariants()
		slotted.checkInvariants()
		if flat.Len() != slotted.Len() {
			t.Fatalf("step %d: Len flat=%d slots=%d", step, flat.Len(), slotted.Len())
		}
		for _, e := range flat.entries {
			g, ok := slotted.Get(e.Addr)
			if !ok || g != e {
				t.Fatalf("step %d: entry %d flat=%+v slots=%+v (ok=%v)", step, e.Addr, e, g, ok)
			}
		}
	}
	flat.Clear()
	slotted.Clear()
	if flat.Len() != 0 || slotted.Len() != 0 || flat.Has(1) || slotted.Has(1) {
		t.Fatal("Clear left residue")
	}
	flat.checkInvariants()
	slotted.checkInvariants()
}
