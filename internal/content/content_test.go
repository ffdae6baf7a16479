package content

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simrng"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"defaults", func(*Params) {}, true},
		{"zero items", func(p *Params) { p.NumItems = 0 }, false},
		{"items beyond ItemID", func(p *Params) { p.NumItems = math.MaxInt32; p.NumItems++ }, false},
		{"negative pop exp", func(p *Params) { p.PopularityExp = -1 }, false},
		{"negative query exp", func(p *Params) { p.QueryExp = -1 }, false},
		{"bad nonexistent fraction", func(p *Params) { p.NonexistentQueryFraction = 1 }, false},
		{"bad free rider", func(p *Params) { p.FreeRiderFraction = -0.1 }, false},
		{"negative sigma", func(p *Params) { p.LibrarySigma = -1 }, false},
		{"negative max library", func(p *Params) { p.MaxLibrary = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			_, err := New(p)
			if (err == nil) != tt.ok {
				t.Fatalf("New() error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestFreeRiderFraction(t *testing.T) {
	p := DefaultParams()
	p.FreeRiderFraction = 0.25
	u := MustNew(p)
	r := simrng.New(1)
	const n = 20000
	zero := 0
	for i := 0; i < n; i++ {
		if u.SampleLibrarySize(r) == 0 {
			zero++
		}
	}
	if f := float64(zero) / n; math.Abs(f-0.25) > 0.02 {
		t.Fatalf("free-rider fraction %v, want ~0.25", f)
	}
}

func TestLibrarySizeBounds(t *testing.T) {
	p := DefaultParams()
	p.MaxLibrary = 50
	u := MustNew(p)
	r := simrng.New(2)
	for i := 0; i < 5000; i++ {
		s := u.SampleLibrarySize(r)
		if s < 0 || s > 50 {
			t.Fatalf("library size %d outside [0,50]", s)
		}
	}
}

func TestNewLibraryExactSize(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(3)
	for _, size := range []int{0, 1, 10, 500} {
		lib := u.NewLibrary(r, size)
		if lib.Size() != size {
			t.Fatalf("NewLibrary(%d).Size() = %d", size, lib.Size())
		}
	}
}

func TestNewLibraryDistinctValidItems(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(4)
	lib := u.NewLibrary(r, 300)
	seen := make(map[ItemID]bool)
	for _, id := range lib.AppendItems(nil) {
		if id < 0 || int(id) >= u.NumItems() {
			t.Fatalf("item %d outside universe", id)
		}
		if seen[id] {
			t.Fatalf("duplicate item %d", id)
		}
		seen[id] = true
	}
}

func TestPopularItemsMoreReplicated(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(5)
	const peers = 2000
	popularOwned, tailOwned := 0, 0
	tail := ItemID(u.NumItems() - 1)
	for i := 0; i < peers; i++ {
		lib := u.NewLibrary(r, 100)
		if lib.Contains(0) {
			popularOwned++
		}
		if lib.Contains(tail) {
			tailOwned++
		}
	}
	if popularOwned <= tailOwned*5 {
		t.Fatalf("replication not skewed: item0 on %d peers, tail item on %d", popularOwned, tailOwned)
	}
}

func TestDrawQueryNonexistentFraction(t *testing.T) {
	p := DefaultParams()
	p.NonexistentQueryFraction = 0.1
	u := MustNew(p)
	r := simrng.New(6)
	const n = 50000
	none := 0
	for i := 0; i < n; i++ {
		q := u.DrawQuery(r)
		if q == NoItem {
			none++
		} else if q < 0 || int(q) >= u.NumItems() {
			t.Fatalf("query item %d outside universe", q)
		}
	}
	if f := float64(none) / n; math.Abs(f-0.1) > 0.01 {
		t.Fatalf("nonexistent query fraction %v, want ~0.1", f)
	}
}

func TestLibraryZeroValue(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(5)
	full := u.NewLibrary(r, 50)
	held := full.AppendItems(nil)[0]
	// A free rider built into recycled storage is as empty as the zero
	// value, and hands the storage on to the next library.
	emptied := u.NewLibraryInto(r, 0, full)
	for _, c := range []struct {
		name string
		lib  Library
	}{{"zero", Library{}}, {"emptied", emptied}} {
		name, lib := c.name, c.lib
		if lib.Size() != 0 {
			t.Fatalf("%s library has nonzero size", name)
		}
		if lib.Contains(0) || lib.Contains(held) || lib.Contains(NoItem) {
			t.Fatalf("%s library claims to contain items", name)
		}
		if lib.Results(3) != 0 || len(lib.AppendItems(nil)) != 0 {
			t.Fatalf("%s library returned results", name)
		}
	}
	if next := u.NewLibraryInto(r, 50, emptied); next.set != full.set {
		t.Fatal("an emptied library dropped the storage it was given")
	}
}

func TestResults(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(7)
	lib := u.NewLibrary(r, 50)
	items := lib.AppendItems(nil)
	if lib.Results(items[0]) != 1 {
		t.Fatal("owned item returned no result")
	}
	if lib.Results(NoItem) != 0 {
		t.Fatal("NoItem matched")
	}
}

// TestMatchProbabilityGrowsWithLibrary verifies the core property the
// MFS policy exploits: peers with more files answer more queries.
func TestMatchProbabilityGrowsWithLibrary(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(8)
	match := func(libSize, trials int) float64 {
		hits := 0
		lib := u.NewLibrary(r, libSize)
		for i := 0; i < trials; i++ {
			if lib.Contains(u.DrawQuery(r)) {
				hits++
			}
		}
		return float64(hits) / float64(trials)
	}
	small := match(10, 20000)
	large := match(1000, 20000)
	if large <= small*3 {
		t.Fatalf("match probability not increasing with library size: small=%v large=%v", small, large)
	}
}

// TestUnsatisfiableFloor: with the default calibration, a noticeable
// fraction of queries cannot be answered even by the union of many
// libraries (the paper's ~6% floor at NetworkSize 1000).
func TestUnsatisfiableFloor(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(9)
	// Union of 1000 typical libraries.
	libs := make([]Library, 1000)
	for i := range libs {
		libs[i] = u.NewLibrary(r, u.SampleLibrarySize(r))
	}
	const queries = 5000
	unsat := 0
	for i := 0; i < queries; i++ {
		q := u.DrawQuery(r)
		found := false
		for _, lib := range libs {
			if lib.Contains(q) {
				found = true
				break
			}
		}
		if !found {
			unsat++
		}
	}
	f := float64(unsat) / queries
	if f < 0.02 || f > 0.15 {
		t.Fatalf("unsatisfiable floor %v, want ~0.03-0.10", f)
	}
}

// TestLibrarySizeClampsHugeDraw: a log-normal draw beyond int's range
// must clamp to MaxLibrary; converted first it is platform-defined
// (negative on amd64, which used to come out as 1).
func TestLibrarySizeClampsHugeDraw(t *testing.T) {
	p := DefaultParams()
	p.FreeRiderFraction = 0
	p.LibraryMu = 100 // e^100 ~ 2.7e43
	p.LibrarySigma = 0
	u := MustNew(p)
	if got := u.SampleLibrarySize(simrng.New(1)); got != u.MaxLibrary() {
		t.Fatalf("SampleLibrarySize = %d for a draw of e^100, want MaxLibrary = %d", got, u.MaxLibrary())
	}
	p.LibraryMu = -100
	if got := MustNew(p).SampleLibrarySize(simrng.New(1)); got != 1 {
		t.Fatalf("SampleLibrarySize = %d for a draw of e^-100, want 1", got)
	}
}

// TestSharedPopularityTable: equal exponents share one Zipf, different
// ones do not, and a query stream cannot tell.
func TestSharedPopularityTable(t *testing.T) {
	p := DefaultParams()
	shared := MustNew(p)
	if shared.queryPop != shared.itemPop {
		t.Fatal("equal exponents built two Zipf tables")
	}
	p.QueryExp = 1.1
	split := MustNew(p)
	if split.queryPop == split.itemPop {
		t.Fatal("different exponents share one Zipf table")
	}
	p.PopularityExp = 1.1 // shared again, at split's query exponent
	shared = MustNew(p)
	a, b := simrng.New(3), simrng.New(3)
	for i := 0; i < 1000; i++ {
		if x, y := split.DrawQuery(a), shared.DrawQuery(b); x != y {
			t.Fatalf("query %d: %d from its own table, %d from the shared one", i, x, y)
		}
	}
}

// referenceLibrary is the sampler NewLibraryInto replaced, kept as the
// reference: the same loop over a Go map. The draws a library costs and
// the set they yield are what seeded runs depend on.
func referenceLibrary(u *Universe, r *simrng.RNG, size int) (items map[ItemID]struct{}, toppedUp bool) {
	if size > u.maxLib {
		size = u.maxLib
	}
	items = make(map[ItemID]struct{}, size)
	budget := 10 * size
	for len(items) < size && budget > 0 {
		budget--
		items[ItemID(u.itemPop.Rank(r))] = struct{}{}
	}
	for len(items) < size {
		toppedUp = true
		items[ItemID(r.Intn(u.params.NumItems))] = struct{}{}
	}
	return items, toppedUp
}

// checkSameLibrary fails unless lib holds exactly want, by every
// accessor.
func checkSameLibrary(t *testing.T, lib Library, want map[ItemID]struct{}) {
	t.Helper()
	if lib.Size() != len(want) {
		t.Fatalf("Size() = %d, reference has %d items", lib.Size(), len(want))
	}
	got := lib.AppendItems(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendItems gave %d items, reference has %d", len(got), len(want))
	}
	// As many items as the reference, strictly ascending and all in it:
	// the same set, in the order AppendItems promises.
	for i, id := range got {
		if _, ok := want[id]; !ok {
			t.Fatalf("library holds item %d, the reference does not", id)
		}
		if i > 0 && got[i-1] >= id {
			t.Fatalf("AppendItems gave item %d after %d", id, got[i-1])
		}
		if !lib.Contains(id) || lib.Results(id) != 1 {
			t.Fatalf("library does not answer for its own item %d", id)
		}
	}
}

func TestLibraryMatchesReferenceSampler(t *testing.T) {
	small := DefaultParams()
	// All 40 items asked of a steep law: the rejection budget of 400
	// draws runs out (the last item has mass 4e-4) and the uniform top-up
	// finishes. At the default exponent 400 draws usually find all 40.
	small.NumItems, small.MaxLibrary, small.PopularityExp = 40, 40, 2
	universes := []struct {
		name string
		u    *Universe
	}{{"default", MustNew(DefaultParams())}, {"items=40", MustNew(small)}}
	for _, uc := range universes {
		name, u := uc.name, uc.u
		sizes := []int{1, 5, 185, u.MaxLibrary()}
		if name == "default" {
			// Around the sampler's block length: a first block that is
			// short, exactly full, and followed by a one-draw block. (The
			// 40-item cases above end with the budget, not the missing
			// items, cutting the last blocks short.)
			sizes = append(sizes, libraryBlock-1, libraryBlock, libraryBlock+1, 2*libraryBlock)
		}
		for _, size := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/size=%d/seed=%d", name, size, seed), func(t *testing.T) {
					rRef, rNew, rInto := simrng.New(seed), simrng.New(seed), simrng.New(seed)
					want, toppedUp := referenceLibrary(u, rRef, size)
					next := rRef.Uint64()
					if toppedUp != (name == "items=40" && size >= 40) {
						t.Fatalf("uniform top-up ran: %v; the cases were chosen so that it runs only when the whole 40-item universe is asked for", toppedUp)
					}
					lib := u.NewLibrary(rNew, size)
					checkSameLibrary(t, lib, want)
					if rNew.Uint64() != next {
						t.Fatal("NewLibrary left the RNG somewhere the reference sampler does not")
					}
					for id := ItemID(0); int(id) < u.NumItems(); id++ {
						if _, ok := want[id]; lib.Contains(id) != ok {
							t.Fatalf("Contains(%d) = %v, reference says %v", id, !ok, ok)
						}
					}

					// Storage recycled from a larger, dead library: the same
					// library, in the same order, and nothing of the dead.
					dead := u.NewLibrary(simrng.New(seed+100), u.MaxLibrary())
					deadItems := dead.AppendItems(nil)
					into := u.NewLibraryInto(rInto, size, dead)
					checkSameLibrary(t, into, want)
					if rInto.Uint64() != next {
						t.Fatal("NewLibraryInto left the RNG somewhere NewLibrary does not")
					}
					fresh, recycled := lib.AppendItems(nil), into.AppendItems(nil)
					for i := range fresh {
						if fresh[i] != recycled[i] {
							t.Fatalf("order differs at %d: fresh %d, recycled %d", i, fresh[i], recycled[i])
						}
					}
					for _, id := range deadItems {
						if _, ok := want[id]; !ok && into.Contains(id) {
							t.Fatalf("recycled library still holds the dead library's item %d", id)
						}
					}
				})
			}
		}
	}
}

// BenchmarkNewLibrary is one birth's library — small, typical, and the
// default universe's MaxLibrary — into recycled storage, as the engine
// under churn builds it.
func BenchmarkNewLibrary(b *testing.B) {
	u := MustNew(DefaultParams())
	for _, size := range []int{32, 185, 2500} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			r := simrng.New(1)
			var lib Library
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lib = u.NewLibraryInto(r, size, lib)
			}
		})
	}
}

// BenchmarkLibraryContains is the probe-time lookup: a query stream
// against one typical library. The popular leg is the stream as queries
// draw it, about one hit in twenty, most of them answered by the head's
// bit test; the tail leg keeps only the stream's IDs past the head, each
// a search of the tail.
func BenchmarkLibraryContains(b *testing.B) {
	u := MustNew(DefaultParams())
	r := simrng.New(1)
	lib := u.NewLibrary(r, 185)
	h := ItemID(lib.set.narrow[0]) * 16
	popular, tail := make([]ItemID, 1024), make([]ItemID, 0, 1024)
	for i := range popular {
		popular[i] = u.DrawQuery(r)
	}
	for len(tail) < cap(tail) {
		if id := u.DrawQuery(r); id >= h {
			tail = append(tail, id)
		}
	}
	for _, leg := range []struct {
		name    string
		queries []ItemID
	}{{"popular", popular}, {"tail", tail}} {
		b.Run(leg.name, func(b *testing.B) {
			hits := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hits += lib.Results(leg.queries[i%len(leg.queries)])
			}
			benchHits = hits
		})
	}
}

var benchHits int

func BenchmarkDrawQuery(b *testing.B) {
	u := MustNew(DefaultParams())
	r := simrng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.DrawQuery(r)
	}
}
