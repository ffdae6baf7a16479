// Package content implements the file-sharing content and query model.
//
// The paper determines whether a probed peer answers a query using the
// hybrid-P2P query model of Yang & Garcia-Molina (VLDB 2001), with
// per-peer library sizes drawn from the Gnutella measurements of Saroiu
// et al. Neither artifact is available, so this package reimplements
// the model synthetically while preserving the properties the paper's
// results depend on:
//
//   - a universe of distinct items whose popularity follows a bounded
//     Zipf law; peers replicate items proportionally to popularity, so
//     popular items are highly replicated and tail items exist on only
//     a handful of peers (or none);
//   - per-peer library sizes are heavy-tailed with a free-rider mass at
//     zero, so a small set of peers holds most content (this is what
//     makes the MFS and MR policies effective and unfair);
//   - queries follow the same popularity law, plus a small mass of
//     queries for items that exist nowhere, so a fraction of queries is
//     unsatisfiable no matter how many peers are probed (the paper
//     reports ~6% at NetworkSize=1000).
//
// The probability that a peer answers a query thus depends on the
// number of files it shares, exactly as in the paper's model.
//
// A library is one open-addressed table of item IDs, and the table is
// most of what a simulated peer weighs. Its slots are 16 bits wide in a
// universe of at most 65 535 items (every ID+1 fits; the default is
// 10 000) and 32 bits wide in a larger one. The width is a function of
// Params.NumItems alone and shows in nothing but memory: an item has the
// same slot, AppendItems the same order and the sampler the same draws
// either way (TestNarrowLibraryMatchesWide).
package content

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/simrng"
)

// ItemID identifies a distinct shareable item. Valid items are in
// [0, NumItems); NoItem denotes a query for content that exists nowhere.
type ItemID int32

// NoItem is the target of a query for nonexistent content.
const NoItem ItemID = -1

// Params configures the content model. The zero value is not valid;
// use DefaultParams.
type Params struct {
	// NumItems is the number of distinct items in the universe.
	NumItems int
	// PopularityExp is the Zipf exponent of item replication.
	PopularityExp float64
	// QueryExp is the Zipf exponent of the query distribution.
	QueryExp float64
	// NonexistentQueryFraction is the probability that a query targets
	// an item that exists nowhere in the network.
	NonexistentQueryFraction float64
	// FreeRiderFraction is the probability that a peer shares no files.
	FreeRiderFraction float64
	// LibraryMu and LibrarySigma parameterize the log-normal body of
	// the library-size distribution for sharing peers.
	LibraryMu, LibrarySigma float64
	// MaxLibrary caps library sizes (0 means NumItems/4).
	MaxLibrary int
}

// DefaultParams returns the calibrated defaults used throughout the
// reproduction. With these values a 1000-peer network shows the
// paper's headline numbers: tens of good probes per query under the
// Random policy and a ~6% unsatisfiable-query floor.
func DefaultParams() Params {
	return Params{
		NumItems:                 10000,
		PopularityExp:            0.8,
		QueryExp:                 0.8,
		NonexistentQueryFraction: 0.05,
		FreeRiderFraction:        0.25,
		LibraryMu:                math.Log(120),
		LibrarySigma:             1.2,
		MaxLibrary:               0,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NumItems <= 0:
		return fmt.Errorf("content: NumItems must be positive, got %d", p.NumItems)
	case p.NumItems > math.MaxInt32:
		return fmt.Errorf("content: NumItems must fit an ItemID (at most %d), got %d", math.MaxInt32, p.NumItems)
	case p.PopularityExp < 0:
		return fmt.Errorf("content: PopularityExp must be >= 0, got %v", p.PopularityExp)
	case p.QueryExp < 0:
		return fmt.Errorf("content: QueryExp must be >= 0, got %v", p.QueryExp)
	case p.NonexistentQueryFraction < 0 || p.NonexistentQueryFraction >= 1:
		return fmt.Errorf("content: NonexistentQueryFraction must be in [0,1), got %v", p.NonexistentQueryFraction)
	case p.FreeRiderFraction < 0 || p.FreeRiderFraction >= 1:
		return fmt.Errorf("content: FreeRiderFraction must be in [0,1), got %v", p.FreeRiderFraction)
	case p.LibrarySigma < 0:
		return fmt.Errorf("content: LibrarySigma must be >= 0, got %v", p.LibrarySigma)
	case p.MaxLibrary < 0:
		return fmt.Errorf("content: MaxLibrary must be >= 0, got %d", p.MaxLibrary)
	}
	return nil
}

// Universe is an immutable content universe shared by all peers in a
// simulation. It is safe for concurrent reads once constructed.
type Universe struct {
	params   Params
	itemPop  *dist.Zipf // replication popularity
	queryPop *dist.Zipf // query popularity
	libSize  dist.Sampler
	maxLib   int
	// narrow is whether every item's ID+1 fits 16 bits, so that the
	// universe's libraries keep uint16 tables: a function of NumItems
	// alone.
	narrow bool
}

// New builds a Universe from params.
func New(params Params) (*Universe, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	itemPop, err := dist.NewZipf(params.NumItems, params.PopularityExp)
	if err != nil {
		return nil, fmt.Errorf("content: item popularity: %w", err)
	}
	queryPop := itemPop // immutable, so equal exponents share one table
	if params.QueryExp != params.PopularityExp {
		queryPop, err = dist.NewZipf(params.NumItems, params.QueryExp)
		if err != nil {
			return nil, fmt.Errorf("content: query popularity: %w", err)
		}
	}
	maxLib := params.MaxLibrary
	if maxLib == 0 {
		maxLib = params.NumItems / 4
	}
	if maxLib > params.NumItems {
		maxLib = params.NumItems
	}
	return &Universe{
		params:   params,
		itemPop:  itemPop,
		queryPop: queryPop,
		libSize:  dist.LogNormal{Mu: params.LibraryMu, Sigma: params.LibrarySigma},
		maxLib:   maxLib,
		narrow:   params.NumItems <= narrowMaxItems,
	}, nil
}

// MustNew is New but panics on error; for tests.
func MustNew(params Params) *Universe {
	u, err := New(params)
	if err != nil {
		panic(err)
	}
	return u
}

// Params returns the universe's configuration.
func (u *Universe) Params() Params { return u.params }

// NumItems returns the number of distinct items.
func (u *Universe) NumItems() int { return u.params.NumItems }

// MaxLibrary returns the largest library size the universe will
// produce. Malicious peers advertise this value to look maximally
// attractive under file-count-based policies.
func (u *Universe) MaxLibrary() int { return u.maxLib }

// SampleLibrarySize draws the number of files a newly born peer shares.
// Free riders share zero files.
func (u *Universe) SampleLibrarySize(r *simrng.RNG) int {
	if r.Bool(u.params.FreeRiderFraction) {
		return 0
	}
	// Clamp before converting: the log-normal tail is unbounded, and
	// int() of a float beyond int's range is platform-defined.
	size := u.libSize.Sample(r)
	if !(size >= 1) {
		size = 1
	}
	if size > float64(u.maxLib) {
		size = float64(u.maxLib)
	}
	return int(size)
}

// NewLibrary samples a library of exactly size distinct items, each
// drawn in proportion to item popularity. size is clamped to the
// universe's maximum.
func (u *Universe) NewLibrary(r *simrng.RNG, size int) Library {
	return u.NewLibraryInto(r, size, Library{})
}

// NewLibraryInto is NewLibrary reusing recycle's storage: the recycled
// library's table is resliced to the new size and emptied, so
// simulators under churn can recycle dead peers' libraries instead of
// allocating one per birth. It draws from r exactly as NewLibrary does
// — the sampling loop depends only on the (emptied) set's contents — so
// recycling never perturbs a seeded run. An empty library keeps the
// storage too, so a loop can thread one Library through every call.
// recycle must not be in use by any live peer; pass Library{} to
// allocate fresh.
func (u *Universe) NewLibraryInto(r *simrng.RNG, size int, recycle Library) Library {
	if size > u.maxLib {
		size = u.maxLib
	}
	set := recycle.set
	if size <= 0 {
		if set != nil {
			set.n, set.narrow, set.wide = 0, set.narrow[:0], set.wide[:0]
		}
		return Library{set: set}
	}
	if set == nil {
		set = new(itemSet)
	}
	// A set recycled from a universe of the other width gives that table
	// up: nothing of the dead library stays behind in it.
	if n := tableLen(size); u.narrow {
		set.wide = nil
		set.narrow = resize(set.narrow, n)
		fill(u, r, set.narrow, size)
	} else {
		set.narrow = nil
		set.wide = resize(set.wide, n)
		fill(u, r, set.wide, size)
	}
	set.n = size
	return Library{set: set}
}

// resize returns tab n slots long and empty, reallocated only when it
// is too short.
func resize[S slot](tab []S, n int) []S {
	if cap(tab) < n {
		return make([]S, n)
	}
	tab = tab[:n]
	clear(tab)
	return tab
}

// fill samples size distinct items into the empty table tab.
func fill[S slot](u *Universe, r *simrng.RNG, tab []S, size int) {
	// Popularity-weighted rejection sampling; popular items collide
	// often for large libraries, so bound the attempts and top up with
	// uniform unseen items (these late additions are tail items, which
	// keeps the popularity weighting essentially intact).
	//
	// The draws come a block at a time: the uniforms and their ranks are
	// computed together, where the table loads overlap, and only the
	// inserts run one after another. A block is never longer than the
	// items still missing, so every draw in it is one the loop that draws
	// a rank per insert would have made too: same items, same table
	// order, same state of r afterwards.
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
			if insert(tab, S(k)+1) {
				have++
			}
		}
		budget -= n
	}
	for have < size {
		if insert(tab, S(r.Intn(u.params.NumItems))+1) {
			have++
		}
	}
}

// libraryBlock is the most popularity draws NewLibraryInto makes at a
// time.
const libraryBlock = 64

// DrawQuery samples the target item of a query: NoItem with probability
// NonexistentQueryFraction, otherwise a popularity-weighted item.
func (u *Universe) DrawQuery(r *simrng.RNG) ItemID {
	if r.Bool(u.params.NonexistentQueryFraction) {
		return NoItem
	}
	return ItemID(u.queryPop.Rank(r))
}

// ItemProb returns the replication probability mass of item id.
func (u *Universe) ItemProb(id ItemID) float64 {
	return u.itemPop.Prob(int(id))
}

// Library is the set of items a peer shares. The zero value is an
// empty library (a free rider). It is one pointer wide: simulators hold
// a Library per peer by value, in arrays sized to the population.
type Library struct {
	set *itemSet
}

// itemSet is an open-addressed set of item IDs sized to the library. It
// serves the sampler's dedup as well as Contains.
type itemSet struct {
	n int // items held
	// The table is narrow in a universe whose IDs fit it (Universe.narrow)
	// and wide in any other; the one not in use is nil. It is a power of
	// two long and at most 3/4 full (empty when n is 0); each slot is 0
	// (empty) or an item's ID+1, found by find's linear probing.
	narrow []uint16
	wide   []int32
}

// slot is a table element: wide enough for every ID+1 of its universe.
type slot interface{ uint16 | int32 }

// narrowMaxItems is the largest universe whose every ID+1 fits a uint16.
const narrowMaxItems = math.MaxUint16

// tableLen returns the table length for size >= 1 items: the smallest
// power of two that size fills to at most 3/4.
func tableLen(size int) int {
	return 1 << bits.Len(uint((4*size+2)/3-1))
}

// find returns the slot of tab that holds key, or the empty slot where
// its probe sequence ends. Probing starts at the top bits of a
// multiplicative hash, so that the dense run of small popular IDs every
// library shares spreads over the whole table. The hash is of the key's
// value, whatever the slot's width: an item has one slot in a table of
// a given length.
func find[S slot](tab []S, key S) int {
	mask := len(tab) - 1
	i := int((uint32(key) * 0x9E3779B1) >> bits.LeadingZeros32(uint32(mask)))
	for tab[i] != key && tab[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// insert adds key, an item's ID+1, to tab and reports whether it was
// absent.
func insert[S slot](tab []S, key S) bool {
	i := find(tab, key)
	absent := tab[i] == 0
	tab[i] = key
	return absent
}

// holds reports whether tab holds key, an item's ID+1.
func holds[S slot](tab []S, key S) bool {
	return tab[find(tab, key)] == key
}

// Size returns the number of files shared — the peer's NumFiles.
func (l Library) Size() int {
	if l.set == nil {
		return 0
	}
	return l.set.n
}

// Contains reports whether the library holds item id. It is always
// false for NoItem.
func (l Library) Contains(id ItemID) bool {
	if id < 0 || l.Size() == 0 {
		return false
	}
	if tab := l.set.narrow; len(tab) > 0 {
		// An ID beyond the narrow range is in no narrow universe; as a
		// uint16 it would be some other item's key.
		return id < narrowMaxItems && holds(tab, uint16(id)+1)
	}
	return holds(l.set.wide, int32(id)+1)
}

// Results returns the number of results the peer returns for a query
// targeting id (0 or 1 in this model: a peer holds at most one copy of
// an item).
func (l Library) Results(id ItemID) int {
	if l.Contains(id) {
		return 1
	}
	return 0
}

// AppendItems appends the library's items to dst in table order, which
// is a function of the seeded draws and nothing else.
func (l Library) AppendItems(dst []ItemID) []ItemID {
	if l.set == nil {
		return dst
	}
	if tab := l.set.narrow; len(tab) > 0 {
		return appendItems(dst, tab)
	}
	return appendItems(dst, l.set.wide)
}

func appendItems[S slot](dst []ItemID, tab []S) []ItemID {
	for _, key := range tab {
		if key != 0 {
			dst = append(dst, ItemID(key-1))
		}
	}
	return dst
}
