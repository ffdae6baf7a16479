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
// A library is one array, of 16-bit slots in a universe of at most
// 65 535 items (the default is 10 000) and of 32-bit slots in a larger
// one. It holds the library's popular head as a bitmap, the items below
// some H, and then its items from H up in ascending order. Peers
// replicate items in proportion to popularity, so a library's low IDs
// are dense and its high IDs sparse: each library takes the H, a
// multiple of 64, that makes its array shortest (H = 0 is a plain
// ascending array), and at the default calibration its array is about
// 40 % shorter than the plain one. Libraries are about a fifth of what a
// simulated peer weighs. The width and the head show in nothing but
// memory: AppendItems gives the same items in the same order and the
// sampler makes the same draws either way (TestNarrowLibraryMatchesWide,
// FuzzLibrary). The sampler dedups its draws in a bitmap of NumItems
// bits that the universe keeps and reuses, empty between libraries,
// beside a summary of the bitmap's words that hold items; a library's
// head is a copy of the bitmap's first words, and its tail is read from
// the words the summary names.
package content

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

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

// Universe is the content universe shared by all peers in a simulation.
// Its parameters and popularity tables are immutable once constructed.
// The one thing it changes is the sampler's bitmap, which mu guards:
// concurrent use is safe, and concurrent NewLibrary calls take turns.
// Every engine builds a Universe of its own, so they never wait.
type Universe struct {
	params   Params
	itemPop  *dist.Zipf // replication popularity
	queryPop *dist.Zipf // query popularity
	libSize  dist.Sampler
	maxLib   int
	// narrow is whether the universe's libraries hold uint16 slots: a
	// function of NumItems alone.
	narrow bool

	mu sync.Mutex
	// seen is fill's bitmap of NumItems bits, one per item, and touched
	// its summary, a bit per word of seen that holds an item: made by the
	// first library that needs them and all clear between libraries.
	seen, touched []uint64
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
// library's array is resliced to the new library's length, so simulators
// under churn can recycle dead peers' libraries instead of allocating one
// per birth. It draws from r exactly as NewLibrary does — the sampling
// loop depends only on which items it has drawn so far — so recycling
// never perturbs a seeded run. An empty library keeps the storage too, so
// a loop can thread one Library through every call. recycle must not be
// in use by any live peer; pass Library{} to allocate fresh.
func (u *Universe) NewLibraryInto(r *simrng.RNG, size int, recycle Library) Library {
	if size > u.maxLib {
		size = u.maxLib
	}
	set := recycle.set
	if size <= 0 {
		if set != nil {
			set.narrow, set.wide = set.narrow[:0], set.wide[:0]
		}
		return Library{set: set}
	}
	if set == nil {
		set = new(itemSet)
	}
	// A set recycled from a universe of the other width gives that array
	// up: nothing of the dead library stays behind in it.
	if u.narrow {
		set.wide = nil
		set.narrow = fill(u, r, size, set.narrow)
	} else {
		set.narrow = nil
		set.wide = fill(u, r, size, set.wide)
	}
	return Library{set: set}
}

// resize returns items n long, reallocated only when it is too short.
// What it holds is fill's to overwrite.
func resize[S slot](items []S, n int) []S {
	if cap(items) < n {
		return make([]S, n)
	}
	return items[:n]
}

// fill samples size distinct items and returns their encoding (see
// itemSet) in dst's storage, resized to the encoding's length.
func fill[S slot](u *Universe, r *simrng.RNG, size int, dst []S) []S {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.seen == nil {
		u.seen = make([]uint64, (u.params.NumItems+63)/64)
		u.touched = make([]uint64, (len(u.seen)+63)/64)
	}
	seen, touched := u.seen, u.touched
	width := slotBits[S]()
	// A library too small for its head to reach past the bitmap's end
	// leaves most words empty: its draws set the summary, so that the
	// write-out visits only the words that hold items. A larger one
	// fills most words, and a summary per draw would only slow the
	// draws; its summary is taken from the bitmap after them.
	tracked := size*width/64 < len(seen)
	// Popularity-weighted rejection sampling; popular items collide
	// often for large libraries, so bound the attempts and top up with
	// uniform unseen items (these late additions are tail items, which
	// keeps the popularity weighting essentially intact). A draw adds
	// its item exactly when the item's bit was clear.
	//
	// The draws come a block at a time: the uniforms and their ranks are
	// computed together, where the Zipf table's loads overlap, and only
	// the marks run one after another. A block is never longer than the
	// items still missing, so every draw in it is one the loop that draws
	// a rank per item would have made too: same items, same state of r
	// afterwards.
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
			if mark(seen, uint(k)) {
				have++
			}
		}
		if tracked {
			for _, k := range ranks[:n] {
				touch(touched, uint(k))
			}
		}
		budget -= n
	}
	for have < size {
		k := uint(r.Intn(u.params.NumItems))
		if mark(seen, k) {
			have++
		}
		touch(touched, k)
	}
	// Exactly size bits are set. The head is the bitmap's first words as
	// they stand; the tail, the items after them in ascending order, read
	// from the words the summary marks. Each word is cleared on the way,
	// the summary with it, and the tail stops at the last item.
	words, headItems := headWords(seen, size, width/8)
	perWord := 64 / width
	dst = resize(dst, 1+words*perWord+size-headItems)
	dst[0] = S(words * perWord)
	i := 1
	for w, word := range seen[:words] {
		seen[w] = 0
		for q := 0; q < perWord; q++ {
			dst[i] = S(word >> (q * width))
			i++
		}
	}
	if !tracked && i < len(dst) {
		for w := words; w < len(seen); w++ {
			word := seen[w]
			touched[w>>6] |= (word | -word) >> 63 << (w & 63)
		}
	}
	for t := 0; i < len(dst); t++ {
		sum := touched[t]
		touched[t] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := t<<6 | bits.TrailingZeros64(sum)
			if w < words {
				continue
			}
			word := seen[w]
			seen[w] = 0
			for ; word != 0; word &= word - 1 {
				dst[i] = S(w<<6 | bits.TrailingZeros64(word))
				i++
			}
		}
	}
	// A library all head leaves the summary of its head words set.
	clear(touched[:(words+63)/64])
	return dst
}

// headWords returns how many of seen's first words make the head that
// encodes a library of size items, whose slots are slotBytes wide, in
// the fewest bytes, and how many items those words hold. A word costs 8
// bytes and saves slotBytes per item in it, so a head of more than
// size*slotBytes/8 words never pays and is not looked at. Of two heads
// that cost the same the longer one wins: more items answer in one bit
// test.
func headWords(seen []uint64, size, slotBytes int) (words, items int) {
	saved, held := 0, 0
	for w, word := range seen[:min(len(seen), size*slotBytes/8)] {
		held += bits.OnesCount64(word)
		if s := held*slotBytes - 8*(w+1); s >= saved {
			saved, words, items = s, w+1, held
		}
		if held == size {
			break
		}
	}
	return words, items
}

// mark sets item k's bit in seen and reports whether it was clear.
func mark(seen []uint64, k uint) bool {
	word, bit := seen[k>>6], uint64(1)<<(k&63)
	seen[k>>6] = word | bit
	return word&bit == 0
}

// touch sets the summary bit of the word of seen that holds item k.
func touch(touched []uint64, k uint) {
	touched[k>>12] |= 1 << (k >> 6 & 63)
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

// Library is the set of items a peer shares. The zero value is an
// empty library (a free rider). It is one pointer wide: simulators hold
// a Library per peer by value, in arrays sized to the population.
type Library struct {
	set *itemSet
}

// itemSet holds a library in one array, narrow in a universe whose IDs
// fit it (Universe.narrow) and wide in any other; the one not in use is
// nil or empty, and so is the array of an empty library. The array is
// exactly as long as the encoding (its capacity may be a larger,
// recycled library's):
//
//	a[0]          hs, the head's length in slots: a multiple of 64/W
//	a[1 : 1+hs]   the head, a bitmap of the items in [0, H), H = hs*W:
//	              item i is bit i%W of a[1+i/W]
//	a[1+hs:]      the tail, the items >= H in ascending order
//
// where W is the slot's width in bits. fill picks for each library the
// H, a multiple of 64, that makes the array shortest (headWords); H = 0,
// no head, is a plain ascending array.
type itemSet struct {
	narrow []uint16
	wide   []int32
}

// slot is an array element: wide enough for every ID of its universe.
type slot interface{ uint16 | int32 }

// slotBits is the width of S in bits, W above.
func slotBits[S slot]() int { return 8 * int(unsafe.Sizeof(S(0))) }

// narrowMaxItems is the largest universe whose libraries hold uint16
// slots.
const narrowMaxItems = math.MaxUint16

// holds reports whether the encoded library a holds id, which fits S: a
// bit test in the head, a search of the tail above it.
func holds[S slot](a []S, id uint) bool {
	if len(a) == 0 {
		return false
	}
	w := uint(slotBits[S]())
	hs := uint(a[0])
	if id < hs*w {
		return a[1+id/w]>>(id%w)&1 != 0
	}
	return has(a[1+hs:], S(id))
}

// has reports whether the ascending items hold id. It is a binary search
// with no branch on the items: a step keeps the upper half exactly when
// items[mid] - id - 1 is negative, and the sign is a mask, not a jump,
// so a lookup costs its loads and never a misprediction.
func has[S slot](items []S, id S) bool {
	if len(items) == 0 {
		return false
	}
	base := 0
	for n := len(items); n > 1; {
		half := n >> 1
		base += half & ((int(items[base+half]) - int(id) - 1) >> 63)
		n -= half
	}
	return items[base] == id
}

// count returns the number of items the encoded library a holds.
func count[S slot](a []S) int {
	if len(a) == 0 {
		return 0
	}
	hs := int(a[0])
	n := len(a) - 1 - hs
	for _, s := range a[1 : 1+hs] {
		n += bits.OnesCount32(uint32(s))
	}
	return n
}

// appendItems appends the items of the encoded library a to dst in
// ascending order.
func appendItems[S slot](dst []ItemID, a []S) []ItemID {
	if len(a) == 0 {
		return dst
	}
	w, hs := slotBits[S](), int(a[0])
	for j, s := range a[1 : 1+hs] {
		for word := uint32(s); word != 0; word &= word - 1 {
			dst = append(dst, ItemID(j*w+bits.TrailingZeros32(word)))
		}
	}
	for _, id := range a[1+hs:] {
		dst = append(dst, ItemID(id))
	}
	return dst
}

// Size returns the number of files shared — the peer's NumFiles.
func (l Library) Size() int {
	if l.set == nil {
		return 0
	}
	return count(l.set.narrow) + count(l.set.wide)
}

// Contains reports whether the library holds item id. It is always
// false for NoItem.
func (l Library) Contains(id ItemID) bool {
	if id < 0 || l.set == nil {
		return false
	}
	if a := l.set.narrow; len(a) > 0 {
		// An ID beyond the narrow range is in no narrow universe; as a
		// uint16 it would be some other item.
		return id < narrowMaxItems && holds(a, uint(id))
	}
	return holds(l.set.wide, uint(id))
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

// AppendItems appends the library's items to dst in ascending order.
func (l Library) AppendItems(dst []ItemID) []ItemID {
	if l.set == nil {
		return dst
	}
	return appendItems(appendItems(dst, l.set.narrow), l.set.wide)
}
