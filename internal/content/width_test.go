package content

// A library's array is uint16 in a universe whose IDs fit and int32 in
// any other. The width must be invisible: same items in the same order,
// same answers, same draws. The encodings differ — a head word is as
// wide as a slot, and each width picks the head that is shortest in its
// own bytes — so these tests compare items, not slots. They force one
// universe through both widths and hold both against the table sampler
// the arrays replaced.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/simrng"
)

// newWide is MustNew with wide arrays whatever NumItems is: the wide
// instantiation at sizes a narrow universe has too.
func newWide(p Params) *Universe {
	u := MustNew(p)
	u.narrow = false
	return u
}

// slots returns the library's array as int32 slots, whichever width
// holds it, and fails if both do.
func slots(t *testing.T, lib Library) []int32 {
	t.Helper()
	if lib.set == nil {
		return nil
	}
	if len(lib.set.narrow) > 0 && len(lib.set.wide) > 0 {
		t.Fatal("library holds an array of each width")
	}
	out := make([]int32, 0, len(lib.set.narrow)+len(lib.set.wide))
	for _, k := range lib.set.narrow {
		out = append(out, int32(k))
	}
	return append(out, lib.set.wide...)
}

func TestNarrowLibraryMatchesWide(t *testing.T) {
	steep := DefaultParams()
	// The whole universe asked of a steep law: the 10*size budget runs
	// out and the uniform top-up finishes (see
	// TestLibraryMatchesReferenceSampler).
	steep.NumItems, steep.MaxLibrary, steep.PopularityExp = 40, 40, 2
	for _, c := range []struct {
		name   string
		params Params
		sizes  []int
	}{
		// Around where the table sampler's table doubled: 192 items filled
		// 256 slots, 193 needed 512.
		{"default", DefaultParams(), []int{0, 1, 2, 3, 191, 192, 193, DefaultParams().NumItems / 4}},
		{"top-up", steep, []int{0, 1, 2, 3, 40}},
	} {
		narrow, wide := MustNew(c.params), newWide(c.params)
		if !narrow.narrow {
			t.Fatalf("%s: a universe of %d items is not narrow", c.name, c.params.NumItems)
		}
		for _, size := range c.sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/size=%d/seed=%d", c.name, size, seed), func(t *testing.T) {
					rN, rW, rRef := simrng.New(seed), simrng.New(seed), simrng.New(seed)
					libN, libW := narrow.NewLibrary(rN, size), wide.NewLibrary(rW, size)
					ref := tableSampler(wide, rRef, size)
					slices.Sort(ref)
					if size > 0 && (libN.set.wide != nil || libW.set.narrow != nil) {
						t.Fatal("a library holds the other width's array")
					}
					checkLayout(t, narrow, libN)
					checkLayout(t, wide, libW)
					if libN.Size() != size || libW.Size() != size {
						t.Fatalf("sizes %d (narrow) and %d (wide), want %d", libN.Size(), libW.Size(), size)
					}
					if n, w := libN.AppendItems(nil), libW.AppendItems(nil); !slices.Equal(n, ref) || !slices.Equal(w, ref) {
						t.Fatalf("items differ:\nnarrow %v\nwide   %v\nref    %v", n, w, ref)
					}
					for id := ItemID(-1); int(id) <= c.params.NumItems; id++ {
						if libN.Contains(id) != libW.Contains(id) {
							t.Fatalf("Contains(%d): narrow %v, wide %v", id, libN.Contains(id), libW.Contains(id))
						}
					}
					next := rRef.Uint64()
					if rN.Uint64() != next || rW.Uint64() != next {
						t.Fatal("the streams are not where the reference left its own")
					}
				})
			}
		}
	}
}

// fullLibrary is every item of a flat universe of n: the rejection
// budget finds nearly all of them and the top-up the rest.
func fullLibrary(n int) Library {
	p := DefaultParams()
	p.NumItems, p.MaxLibrary, p.PopularityExp, p.QueryExp = n, n, 0, 0
	return MustNew(p).NewLibrary(simrng.New(1), n)
}

func TestLibraryWidthBoundary(t *testing.T) {
	// A universe of 65 535 items is the largest with uint16 slots.
	last := fullLibrary(narrowMaxItems)
	if len(last.set.narrow) == 0 || last.set.wide != nil {
		t.Fatalf("a universe of %d items is not narrow", narrowMaxItems)
	}
	items := last.AppendItems(nil)
	for i, id := range items {
		if int(id) != i {
			t.Fatalf("the full narrow library lacks item %d", i)
		}
	}
	if len(items) != narrowMaxItems || !last.Contains(narrowMaxItems-1) {
		t.Fatalf("the full narrow library holds %d items, the last one: %v", len(items), last.Contains(narrowMaxItems-1))
	}
	// Every ID that a uint16 would fold onto a held item: no truncated hit.
	for _, id := range []ItemID{narrowMaxItems, narrowMaxItems + 1, 1 << 16, 1<<16 + 5, 3<<16 + narrowMaxItems - 1, 1<<31 - 1} {
		if last.Contains(id) || last.Results(id) != 0 {
			t.Fatalf("narrow library answers for item %d, beyond its universe", id)
		}
	}

	first := fullLibrary(narrowMaxItems + 1)
	if len(first.set.wide) == 0 || first.set.narrow != nil {
		t.Fatalf("a universe of %d items is not wide", narrowMaxItems+1)
	}
	if first.Size() != narrowMaxItems+1 || !first.Contains(narrowMaxItems) || first.Contains(narrowMaxItems+1) {
		t.Fatal("the full wide library does not hold exactly its universe")
	}
}

// TestLibraryRecycledAcrossWidths hands one library's storage from a
// wide universe to a narrow one and back, as core.Renew does between
// two Content.NumItems: each time the same library as a fresh one, and
// nothing left in the array of the other width.
func TestLibraryRecycledAcrossWidths(t *testing.T) {
	wideP := DefaultParams()
	wideP.NumItems = 70_000
	wide, narrow := MustNew(wideP), MustNew(DefaultParams())
	if wide.narrow || !narrow.narrow {
		t.Fatal("the two universes are not of two widths")
	}
	lib := wide.NewLibrary(simrng.New(9), 300)
	for i, c := range []struct {
		u    *Universe
		size int
	}{{narrow, 120}, {wide, 500}, {narrow, 0}, {wide, 40}, {narrow, 700}} {
		rFresh, rInto := simrng.New(uint64(i+1)), simrng.New(uint64(i+1))
		fresh := c.u.NewLibrary(rFresh, c.size)
		lib = c.u.NewLibraryInto(rInto, c.size, lib)
		if lib.Size() != c.size || !slices.Equal(slots(t, lib), slots(t, fresh)) {
			t.Fatalf("step %d: the recycled library is not the fresh one", i)
		}
		if !slices.Equal(lib.AppendItems(nil), fresh.AppendItems(nil)) {
			t.Fatalf("step %d: AppendItems differ", i)
		}
		if c.size > 0 && (c.u.narrow && lib.set.wide != nil || !c.u.narrow && lib.set.narrow != nil) {
			t.Fatalf("step %d: the array of the other width was kept", i)
		}
		for id := ItemID(-1); int(id) <= wideP.NumItems; id += 7 {
			if lib.Contains(id) != fresh.Contains(id) {
				t.Fatalf("step %d: Contains(%d) = %v, fresh says %v", i, id, lib.Contains(id), fresh.Contains(id))
			}
		}
		if rInto.Uint64() != rFresh.Uint64() {
			t.Fatalf("step %d: recycling moved the stream", i)
		}
	}
}
