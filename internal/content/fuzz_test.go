package content

import (
	"slices"
	"testing"

	"repro/internal/simrng"
)

// FuzzLibrary holds a library against the map sampler it replaced, in a
// narrow universe, a wide one, the two either side of the width
// boundary (65 535 items, narrow; 65 536, wide), each of which may be
// asked for every one of its items, and one so skewed that a small
// library runs out of popularity draws and is topped up uniformly. The library is built fresh, into the
// storage of a dead library of the same width, and into that of one of
// the other width, the dead ones of sizes of their own. Each must hold
// the reference's items by Contains for every ID in [-2, NumItems+2) and
// either side of the head's end, by AppendItems (ascending) and by Size,
// leave the RNG where the reference left its own, and leave the bitmap
// clear.
func FuzzLibrary(f *testing.F) {
	full := func(n int) Params {
		p := DefaultParams()
		p.NumItems, p.MaxLibrary = n, n
		return p
	}
	steep := DefaultParams()
	steep.PopularityExp = 4
	universes := []*Universe{
		MustNew(DefaultParams()),
		newWide(DefaultParams()),
		MustNew(full(narrowMaxItems)),
		MustNew(full(narrowMaxItems + 1)),
		MustNew(steep),
	}
	f.Add(uint64(1), uint16(185), uint8(0), uint64(2), uint16(2500), uint8(1))
	f.Add(uint64(3), uint16(2500), uint8(1), uint64(4), uint16(32), uint8(0))
	f.Add(uint64(5), uint16(3), uint8(0), uint64(6), uint16(1), uint8(3))
	f.Add(uint64(7), uint16(0), uint8(2), uint64(8), uint16(40_000), uint8(1))
	f.Add(uint64(9), uint16(65_535), uint8(2), uint64(10), uint16(17), uint8(3))
	f.Add(uint64(11), uint16(30_000), uint8(3), uint64(12), uint16(900), uint8(2))
	f.Add(uint64(13), uint16(185), uint8(4), uint64(14), uint16(32), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, which uint8, deadSeed uint64, deadSize uint16, deadWhich uint8) {
		u := universes[int(which)%len(universes)]
		var same, other []*Universe
		for _, v := range universes {
			if v.narrow == u.narrow {
				same = append(same, v)
			} else {
				other = append(other, v)
			}
		}
		rRef := simrng.New(seed)
		ref, _ := referenceLibrary(u, rRef, int(size))
		next := rRef.Uint64()
		want := make([]ItemID, 0, len(ref))
		for id := range ref {
			want = append(want, id)
		}
		slices.Sort(want)

		for _, dead := range []*Universe{nil, same[int(deadWhich)%len(same)], other[int(deadWhich)%len(other)]} {
			var recycle Library
			if dead != nil {
				recycle = dead.NewLibrary(simrng.New(deadSeed), int(deadSize))
			}
			r := simrng.New(seed)
			lib := u.NewLibraryInto(r, int(size), recycle)
			if r.Uint64() != next {
				t.Fatal("the library's draws are not the reference sampler's")
			}
			if lib.Size() != len(want) {
				t.Fatalf("Size() = %d, the reference has %d items", lib.Size(), len(want))
			}
			if got := lib.AppendItems(nil); !slices.Equal(got, want) {
				t.Fatalf("AppendItems gave %d items, not the reference's %d in ascending order", len(got), len(want))
			}
			h := headEnd(lib)
			ids := []ItemID{h - 1, h}
			for id := ItemID(-2); int(id) < u.NumItems()+2; id++ {
				ids = append(ids, id)
			}
			for _, id := range ids {
				if _, held := ref[id]; lib.Contains(id) != held || (lib.Results(id) == 1) != held {
					t.Fatalf("Contains(%d) = %v, Results %d; the reference says %v", id, lib.Contains(id), lib.Results(id), held)
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
	})
}

// headEnd returns H, the first ID past the library's head (0 when it
// has none).
func headEnd(lib Library) ItemID {
	switch {
	case lib.set == nil:
		return 0
	case len(lib.set.narrow) > 0:
		return ItemID(lib.set.narrow[0]) * 16
	case len(lib.set.wide) > 0:
		return ItemID(lib.set.wide[0]) * 32
	}
	return 0
}
