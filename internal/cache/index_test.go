package cache

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/simrng"
)

// The two LinkCache indexes (one tag byte per slot, address-to-slot map)
// must be indistinguishable through the API, down to which slot every
// entry occupies: policies index Entries() with RNG draws, so a
// different slot is a different simulation. NewLinkCache picks the
// index from the capacity; the tests build both at one capacity.

// newIndexed returns an empty cache of the given capacity with the
// chosen index, whatever NewLinkCache would have picked.
func newIndexed(capacity int, useMap bool) *LinkCache {
	c := &LinkCache{capacity: capacity, entries: make([]Entry, 0, capacity)}
	if useMap {
		c.index = make(map[PeerID]int, capacity)
	} else {
		c.tags = make([]byte, 0, capacity)
	}
	return c
}

// fabricatedBase is where internal/core starts fabricated addresses
// (its fakeAddrBase; core imports this package, so the value is
// repeated here).
const fabricatedBase PeerID = 1 << 30

// sameTag returns the first n positive addresses whose tag is tag.
func sameTag(tag byte, n int) []PeerID {
	out := make([]PeerID, 0, n)
	for a := PeerID(1); len(out) < n; a++ {
		if tagOf(a) == tag {
			out = append(out, a)
		}
	}
	return out
}

// scriptAddrs is the address pool op scripts draw from: more addresses
// than any scripted capacity, mixing the simulator's consecutive peer
// IDs, its fabricated range, a run that all share one tag byte, so
// false-positive tag hits are routine rather than 1-in-256, and the
// last real ID and the last two values a PeerID holds.
func scriptAddrs() []PeerID {
	var pool []PeerID
	for a := PeerID(1); a <= 24; a++ {
		pool = append(pool, a, fabricatedBase+a)
	}
	pool = append(pool, sameTag(tagOf(1), 24)...)
	return append(pool, fabricatedBase-1, math.MaxInt32-1, math.MaxInt32)
}

// runOpScript decodes script into LinkCache calls (two bytes each:
// operation, then address or slot), applies every call to a tag-indexed
// and a map-indexed cache of the same capacity, and fails on the first
// observable difference. Entries() must agree slot for slot after every
// call.
func runOpScript(t *testing.T, capacity int, script []byte) {
	t.Helper()
	tagged, mapped := newIndexed(capacity, false), newIndexed(capacity, true)
	pool := scriptAddrs()
	// replaceAt reports whether ReplaceAt panicked.
	replaceAt := func(c *LinkCache, i int, e Entry) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		c.ReplaceAt(i, e)
		return false
	}
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], int(script[step+1])
		addr := pool[arg%len(pool)]
		e := Entry{Addr: addr, TS: float64(step), NumFiles: int32(arg)}
		var a, b any
		switch op % 9 {
		case 0, 1: // twice the weight: scripts should fill the cache
			a, b = tagged.Add(e), mapped.Add(e)
		case 2:
			a, b = tagged.Remove(addr), mapped.Remove(addr)
		case 3:
			// The slot comes from the operation byte's high bits, so slot
			// and address vary independently: the script reaches both the
			// in-place replace and the duplicate panic.
			if tagged.Len() == 0 {
				continue
			}
			slot := int(op/9) % tagged.Len()
			wantPanic := tagged.Has(addr) && tagged.entries[slot].Addr != addr
			a, b = replaceAt(tagged, slot, e), replaceAt(mapped, slot, e)
			if a != wantPanic {
				t.Fatalf("step %d: ReplaceAt(%d, %d) panicked=%v, want %v", step, slot, addr, a, wantPanic)
			}
		case 4:
			tagged.Touch(addr, float64(step))
			mapped.Touch(addr, float64(step))
		case 5:
			tagged.SetNumRes(addr, int32(arg))
			mapped.SetNumRes(addr, int32(arg))
		case 6:
			a, b = tagged.Has(addr), mapped.Has(addr)
		case 7:
			ea, oka := tagged.Get(addr)
			eb, okb := mapped.Get(addr)
			a, b = oka, okb
			if ea != eb || (oka && ea.Addr != addr) {
				t.Fatalf("step %d: Get(%d) tags=%+v map=%+v", step, addr, ea, eb)
			}
		case 8:
			if arg%16 == 0 { // rare, or no script ever fills the cache
				tagged.Clear()
				mapped.Clear()
			}
		}
		if a != b {
			t.Fatalf("step %d: op %d on %d: tags=%v map=%v", step, op%9, addr, a, b)
		}
		tagged.checkInvariants()
		mapped.checkInvariants()
		if len(tagged.entries) != len(mapped.entries) {
			t.Fatalf("step %d: Len tags=%d map=%d", step, len(tagged.entries), len(mapped.entries))
		}
		for i, e := range tagged.entries {
			if mapped.entries[i] != e {
				t.Fatalf("step %d: slot %d tags=%+v map=%+v", step, i, e, mapped.entries[i])
			}
		}
	}
}

// TestLinkCacheIndexModel is the model-based test: long random scripts
// at capacities below the address pool's size, so caches fill, evict
// and drain.
func TestLinkCacheIndexModel(t *testing.T) {
	r := simrng.New(11)
	for _, capacity := range []int{1, 7, 32, 60} {
		script := make([]byte, 2*20000)
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		runOpScript(t, capacity, script)
	}
}

// FuzzLinkCacheOps lets the fuzzer write the script.
func FuzzLinkCacheOps(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 2, 0, 3, 0, 4, 3, 1, 2, 2, 6, 2, 7, 3, 8, 0})
	f.Add(uint8(60), []byte{0, 48, 0, 49, 0, 50, 3, 49, 12, 49, 2, 48, 7, 50})
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		runOpScript(t, int(capacity)%linearIndexMax+1, script)
	})
}

// TestLinkCacheSharedTag fills a tag-indexed cache with 100 addresses
// that all have the same tag byte, the worst case for the scan: every
// lookup has to step over false positives to the one right slot, and
// absent addresses with that tag must fall off the end.
func TestLinkCacheSharedTag(t *testing.T) {
	const resident = 100
	addrs := sameTag(tagOf(fabricatedBase), resident+28)
	c := NewLinkCache(resident)
	if c.tags == nil {
		t.Fatal("capacity 100 did not select the tag index")
	}
	for i, a := range addrs[:resident] {
		if !c.Add(Entry{Addr: a, NumFiles: int32(i)}) {
			t.Fatalf("Add(%d) refused", a)
		}
	}
	c.checkInvariants()
	check := func() {
		t.Helper()
		for i, e := range c.Entries() {
			if got := c.find(e.Addr); got != i {
				t.Fatalf("find(%d) = %d, want slot %d", e.Addr, got, i)
			}
			if g, ok := c.Get(e.Addr); !ok || g != e {
				t.Fatalf("Get(%d) = %+v, %v; want %+v", e.Addr, g, ok, e)
			}
		}
		for _, a := range addrs[resident:] {
			if c.Has(a) || c.find(a) != -1 {
				t.Fatalf("absent address %d with the shared tag found", a)
			}
		}
	}
	check()
	if c.Add(Entry{Addr: addrs[resident-1]}) {
		t.Fatal("duplicate of the last slot's address accepted")
	}

	// Touch and SetNumRes reach the addressed entry and no other.
	last := addrs[resident-1]
	c.Touch(last, 7.5)
	c.SetNumRes(last, 3)
	for i, e := range c.Entries() {
		touched := e.TS == 7.5 && e.NumRes == 3 && e.Direct
		if touched != (i == resident-1) {
			t.Fatalf("slot %d after Touch/SetNumRes on the last slot: %+v", i, e)
		}
	}

	// Swap-with-last removal keeps every tag beside its entry.
	for _, a := range []PeerID{addrs[0], addrs[50], addrs[resident-1]} {
		if !c.Remove(a) || c.Has(a) {
			t.Fatalf("Remove(%d) failed", a)
		}
		c.checkInvariants()
		check()
	}

	// ReplaceAt still refuses to duplicate a resident address, and
	// accepts an absent one that shares its tag.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ReplaceAt duplicating an address did not panic")
			}
		}()
		c.ReplaceAt(0, Entry{Addr: c.Entries()[c.Len()-1].Addr})
	}()
	c.ReplaceAt(0, Entry{Addr: addrs[resident]})
	if c.find(addrs[resident]) != 0 {
		t.Fatal("replacement not found at its slot")
	}
	c.checkInvariants()
}

// TestEntryLayout pins the packed entry: a field added or widened
// without thought moves a 32-entry cache out of the 768-byte size class.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Fatalf("Entry is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(PeerID(0)); got != 4 {
		t.Fatalf("PeerID is %d bytes, want 4", got)
	}
	c := NewLinkCache(32)
	if got := cap(c.Entries()) * int(unsafe.Sizeof(Entry{})); got != 768 {
		t.Fatalf("a 32-entry cache's backing array is %d bytes, want 768", got)
	}
}

// TestLinkCacheGrowthStopsAtCapacity fills caches on both sides of
// NewLinkCache's 256-entry starting allocation: the backing array never
// outgrows the capacity, slot order is insertion order, and a cleared
// cache refills without allocating.
func TestLinkCacheGrowthStopsAtCapacity(t *testing.T) {
	for _, capacity := range []int{5, 32, 128, 129, 300, 1000} {
		c := NewLinkCache(capacity)
		fill := func() {
			for a := PeerID(1); int(a) <= capacity; a++ {
				if !c.Add(Entry{Addr: a}) {
					t.Fatalf("capacity %d: Add(%d) refused", capacity, a)
				}
				if cap(c.Entries()) > c.Cap() {
					t.Fatalf("capacity %d: backing array of %d entries after %d adds",
						capacity, cap(c.Entries()), a)
				}
			}
		}
		fill()
		c.checkInvariants()
		if !c.Full() || c.Add(Entry{Addr: PeerID(capacity + 1)}) {
			t.Fatalf("capacity %d: not full after %d adds", capacity, capacity)
		}
		for i, e := range c.Entries() {
			if e.Addr != PeerID(i+1) {
				t.Fatalf("capacity %d: slot %d holds %d", capacity, i, e.Addr)
			}
		}
		if c.tags != nil && cap(c.tags) != capacity {
			t.Fatalf("capacity %d: %d tag bytes", capacity, cap(c.tags))
		}
		if allocs := testing.AllocsPerRun(3, func() { c.Clear(); fill() }); allocs != 0 {
			t.Fatalf("capacity %d: Clear and refill allocated %v times", capacity, allocs)
		}
	}
}

// tagOf64 is the 64-bit formula the tag hash replaced, kept as the
// reference: a PeerID was an int64 and went into the multiply
// sign-extended.
func tagOf64(addr int64) byte {
	return byte((uint64(addr) * 0x9E3779B97F4A7C15) >> 56)
}

// eachRealID calls f with every ID a run of a million peers can assign,
// then with strides up to the last real ID.
func eachRealID(f func(PeerID)) {
	for id := PeerID(1); id <= 1<<20; id++ {
		f(id)
	}
	for id := PeerID(1<<20 + 1); id < fabricatedBase-1; id += 1<<18 - 3 {
		f(id)
	}
	f(fabricatedBase - 1)
}

// TestRealIDsHashAsBefore checks, rather than argues, that narrowing the
// ID left every real ID its tag (policy's TestQueryCacheProbeStartAsBefore
// does the same for the query cache's seen set).
func TestRealIDsHashAsBefore(t *testing.T) {
	eachRealID(func(id PeerID) {
		if got, want := tagOf(id), tagOf64(int64(id)); got != want {
			t.Fatalf("tagOf(%d) = %d, 64-bit formula %d", id, got, want)
		}
	})
	// A fabricated address hashes as its unsigned value, not sign-extended.
	for _, id := range []PeerID{fabricatedBase, math.MaxInt32, -1, math.MinInt32} {
		if got, want := tagOf(id), tagOf64(int64(uint32(id))); got != want {
			t.Fatalf("tagOf(%d) = %d, want %d", id, got, want)
		}
	}
}
