package content

// A library is a bitmap head and an ascending tail, filled through the
// universe's bitmap. These tests hold it against two references: a
// map[ItemID]bool of what a library should hold, and the open-addressed
// table sampler the array replaced, draw for draw.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/simrng"
)

// tableSampler is the library NewLibraryInto built before libraries
// were ascending arrays, kept as the reference: an int32 table a power
// of two long and at most 3/4 full, each slot 0 or an item's ID+1, found
// by linear probing from the top bits of a multiplicative hash. It
// returns the items in table order.
func tableSampler(u *Universe, r *simrng.RNG, size int) []ItemID {
	if size > u.maxLib {
		size = u.maxLib
	}
	if size <= 0 {
		return nil
	}
	tab := make([]int32, 1<<bits.Len(uint((4*size+2)/3-1)))
	mask := len(tab) - 1
	insert := func(id ItemID) bool {
		key := int32(id) + 1
		i := int((uint32(key) * 0x9E3779B1) >> bits.LeadingZeros32(uint32(mask)))
		for tab[i] != key && tab[i] != 0 {
			i = (i + 1) & mask
		}
		absent := tab[i] == 0
		tab[i] = key
		return absent
	}
	var (
		uniform [libraryBlock]float64
		ranks   [libraryBlock]int32
	)
	have := 0
	for budget := 10 * size; have < size && budget > 0; {
		n := min(libraryBlock, budget, size-have)
		r.Float64s(uniform[:n])
		u.itemPop.Ranks(ranks[:n], uniform[:n])
		for _, k := range ranks[:n] {
			if insert(ItemID(k)) {
				have++
			}
		}
		budget -= n
	}
	for have < size {
		if insert(ItemID(r.Intn(u.params.NumItems))) {
			have++
		}
	}
	items := make([]ItemID, 0, size)
	for _, key := range tab {
		if key != 0 {
			items = append(items, ItemID(key-1))
		}
	}
	return items
}

// TestLibraryMatchesTableSampler: over many seeds and sizes, in both
// widths and with the top-up running, a library holds the table
// sampler's items in ascending order and leaves the RNG where the table
// sampler left it. One Library is threaded through every call, so most
// of them fill storage recycled from a larger or a smaller library.
func TestLibraryMatchesTableSampler(t *testing.T) {
	steep := DefaultParams()
	steep.NumItems, steep.MaxLibrary, steep.PopularityExp = 40, 40, 2
	wideP := DefaultParams()
	wideP.NumItems = 70_000
	for _, c := range []struct {
		name  string
		u     *Universe
		sizes []int
	}{
		{"narrow", MustNew(DefaultParams()), []int{0, 1, 2, 63, 64, 65, 185, 192, 193, 1000, 2500}},
		{"wide", newWide(DefaultParams()), []int{0, 1, 2, 63, 64, 65, 185, 192, 193, 1000, 2500}},
		{"wide-universe", MustNew(wideP), []int{1, 185, 5000, 17_500}},
		{"top-up", MustNew(steep), []int{1, 5, 39, 40}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var lib Library
			for seed := uint64(1); seed <= 20; seed++ {
				for _, size := range c.sizes {
					rRef, rLib := simrng.New(seed), simrng.New(seed)
					want := tableSampler(c.u, rRef, size)
					slices.Sort(want)
					lib = c.u.NewLibraryInto(rLib, size, lib)
					if got := lib.AppendItems(nil); !slices.Equal(got, want) {
						t.Fatalf("seed %d, size %d: AppendItems\n%v\nthe table sampler's items, sorted\n%v", seed, size, got, want)
					}
					if lib.Size() != len(want) {
						t.Fatalf("seed %d, size %d: Size() = %d, want %d", seed, size, lib.Size(), len(want))
					}
					if rLib.Uint64() != rRef.Uint64() {
						t.Fatalf("seed %d, size %d: NewLibraryInto left the RNG somewhere the table sampler does not", seed, size)
					}
				}
			}
		})
	}
}

// checkModel fails unless lib answers every accessor as the model want
// of what it should hold does, and u's bitmap is clear again.
func checkModel(t *testing.T, u *Universe, lib Library, want map[ItemID]bool) {
	t.Helper()
	if lib.Size() != len(want) {
		t.Fatalf("Size() = %d, the model has %d items", lib.Size(), len(want))
	}
	for id := ItemID(-1); int(id) <= u.NumItems(); id++ {
		if lib.Contains(id) != want[id] || (lib.Results(id) == 1) != want[id] {
			t.Fatalf("Contains(%d) = %v, Results %d; the model says %v", id, lib.Contains(id), lib.Results(id), want[id])
		}
	}
	for _, id := range []ItemID{narrowMaxItems, 1 << 16, math.MaxInt32} {
		if lib.Contains(id) != want[id] {
			t.Fatalf("Contains(%d) = %v; the model says %v", id, lib.Contains(id), want[id])
		}
	}
	items := lib.AppendItems(nil)
	if len(items) != len(want) || !slices.IsSorted(items) {
		t.Fatalf("AppendItems gave %d items, sorted: %v; the model has %d", len(items), slices.IsSorted(items), len(want))
	}
	for i, id := range items {
		if !want[id] || i > 0 && items[i-1] == id {
			t.Fatalf("AppendItems gave item %d, which the model does not hold once", id)
		}
	}
	for w, word := range u.seen {
		if word != 0 {
			t.Fatalf("the bitmap kept bits %#x in word %d", word, w)
		}
	}
	for i, sum := range u.touched {
		if sum != 0 {
			t.Fatalf("the summary kept bits %#x in word %d", sum, i)
		}
	}
	checkLayout(t, u, lib)
}

// TestLibraryMatchesModel runs one library's storage through a script of
// sizes in both widths: empty, one item, MaxLibrary and the whole
// universe, each recycled from a larger, a smaller or an other-width
// library. After every step the library answers as a map of the items
// the reference sampler drew.
func TestLibraryMatchesModel(t *testing.T) {
	full := DefaultParams()
	full.NumItems, full.MaxLibrary = 3000, 3000
	type universe struct {
		name string
		u    *Universe
	}
	narrow, wide := universe{"narrow", MustNew(DefaultParams())}, universe{"wide", newWide(DefaultParams())}
	fullN, fullW := universe{"full-narrow", MustNew(full)}, universe{"full-wide", newWide(full)}
	maxLib := narrow.u.MaxLibrary()
	steps := []struct {
		u    universe
		size int
	}{
		{narrow, maxLib}, // fresh
		{narrow, 1},      // from larger
		{narrow, 0},
		{narrow, maxLib}, // from smaller
		{wide, 1},        // from the other width
		{wide, maxLib},
		{fullW, full.NumItems},
		{fullN, full.NumItems}, // the whole universe, from the other width
		{fullN, 1},
		{wide, 0},
		{narrow, 1},
		{fullW, 1},
		{fullW, full.NumItems}, // from smaller
		{wide, maxLib},         // from larger
	}
	var lib Library
	for i, s := range steps {
		t.Run(fmt.Sprintf("%d-%s-size=%d", i, s.u.name, s.size), func(t *testing.T) {
			seed := uint64(100 + i)
			rLib, rRef := simrng.New(seed), simrng.New(seed)
			lib = s.u.u.NewLibraryInto(rLib, s.size, lib)
			items, _ := referenceLibrary(s.u.u, rRef, s.size)
			want := make(map[ItemID]bool, len(items))
			for id := range items {
				want[id] = true
			}
			checkModel(t, s.u.u, lib, want)
			if s.size > 0 && s.u.u.narrow != (lib.set.wide == nil) {
				t.Fatal("the library holds the other width's array")
			}
			if rLib.Uint64() != rRef.Uint64() {
				t.Fatal("the library's draws are not the reference sampler's")
			}
		})
	}
}

// TestLibraryContainsEdges: no ID outside a universe is held, and in a
// narrow universe no ID folds onto a held item by truncation to 16 bits.
func TestLibraryContainsEdges(t *testing.T) {
	for _, u := range []*Universe{MustNew(DefaultParams()), newWide(DefaultParams())} {
		lib := u.NewLibrary(simrng.New(1), u.MaxLibrary())
		items := lib.AppendItems(nil)
		first, last := items[0], items[len(items)-1]
		if !lib.Contains(first) || !lib.Contains(last) {
			t.Fatalf("narrow %v: the library does not hold its first and last items", u.narrow)
		}
		n := ItemID(u.NumItems())
		for _, id := range []ItemID{NoItem, -2, math.MinInt32, n, n + 1, narrowMaxItems, narrowMaxItems + 1, math.MaxInt32,
			first + 1<<16, last + 1<<16, first + 3<<16} {
			if lib.Contains(id) || lib.Results(id) != 0 {
				t.Fatalf("narrow %v: the library answers for item %d, outside its universe", u.narrow, id)
			}
		}
	}
	for _, lib := range []Library{{}, MustNew(DefaultParams()).NewLibrary(simrng.New(1), 0)} {
		for _, id := range []ItemID{NoItem, 0, 1, math.MaxInt32} {
			if lib.Contains(id) {
				t.Fatalf("an empty library answers for item %d", id)
			}
		}
	}
}

// TestLibraryLayout pins the bytes: the header is two slice headers, in
// the 48-byte size class, and a fresh library's array is exactly as long
// as its encoding, with the head that makes the encoding shortest.
func TestLibraryLayout(t *testing.T) {
	if got := unsafe.Sizeof(itemSet{}); got != 48 {
		t.Fatalf("itemSet is %d bytes, want 48", got)
	}
	for _, u := range []*Universe{MustNew(DefaultParams()), newWide(DefaultParams())} {
		for _, size := range []int{1, 2, 3, 4, 32, 185, 192, 193, u.MaxLibrary()} {
			lib := u.NewLibrary(simrng.New(uint64(size)), size)
			checkLayout(t, u, lib)
			if c, n := cap(lib.set.narrow)+cap(lib.set.wide), len(lib.set.narrow)+len(lib.set.wide); c != n {
				t.Fatalf("narrow %v: a fresh library of %d items, encoded in %d slots, has room for %d", u.narrow, size, n, c)
			}
		}
	}
}

// checkLayout fails unless lib's array is a valid encoding (see itemSet)
// in the width of u, and no head of whole words would make it shorter
// and none longer than its own would make it as short.
func checkLayout(t *testing.T, u *Universe, lib Library) {
	t.Helper()
	if lib.set == nil {
		return
	}
	if len(lib.set.narrow) > 0 && len(lib.set.wide) > 0 {
		t.Fatal("the library holds an array of each width")
	}
	if lib.Size() > 0 && u.narrow != (len(lib.set.narrow) > 0) {
		t.Fatalf("a universe with narrow %v holds the library in the other width", u.narrow)
	}
	checkEncoding(t, u.NumItems(), lib.set.narrow)
	checkEncoding(t, u.NumItems(), lib.set.wide)
}

// checkEncoding is checkLayout for one array, of a universe of numItems.
func checkEncoding[S slot](t *testing.T, numItems int, a []S) {
	t.Helper()
	if len(a) == 0 {
		return
	}
	w := slotBits[S]()
	hs := int(a[0])
	if hs < 0 || hs%(64/w) != 0 || 1+hs > len(a) {
		t.Fatalf("head of %d slots of %d bits in an array of %d", hs, w, len(a))
	}
	tail := a[1+hs:]
	for i, id := range tail {
		if int(id) < hs*w || int(id) >= numItems || i > 0 && tail[i-1] >= id {
			t.Fatalf("tail item %d at %d: not in [%d, %d) or not above the one before", id, i, hs*w, numItems)
		}
	}
	items := appendItems(nil, a)
	for words := 0; words <= (numItems+63)/64; words++ {
		above := len(items) - sort.Search(len(items), func(i int) bool { return int(items[i]) >= 64*words })
		n := 1 + words*64/w + above
		if n < len(a) || n == len(a) && words*64 > hs*w {
			t.Fatalf("a head of %d items encodes in %d slots; the library's head of %d, in %d", 64*words, n, hs*w, len(a))
		}
	}
}

// TestLibrariesShareBitmapConcurrently: libraries drawn from one
// Universe on several goroutines at once are the ones drawn serially.
func TestLibrariesShareBitmapConcurrently(t *testing.T) {
	u := MustNew(DefaultParams())
	const workers, perWorker = 4, 50
	draw := func(w int) [][]ItemID {
		r := simrng.New(uint64(w + 1))
		var out [][]ItemID
		for i := 0; i < perWorker; i++ {
			out = append(out, u.NewLibrary(r, u.SampleLibrarySize(r)).AppendItems(nil))
		}
		return out
	}
	serial := make([][][]ItemID, workers)
	for w := range serial {
		serial[w] = draw(w)
	}
	concurrent := make([][][]ItemID, workers)
	var wg sync.WaitGroup
	for w := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[w] = draw(w)
		}()
	}
	wg.Wait()
	for w := range serial {
		for i := range serial[w] {
			if !slices.Equal(serial[w][i], concurrent[w][i]) {
				t.Fatalf("worker %d, library %d: drawn concurrently it is not the serial one", w, i)
			}
		}
	}
}
