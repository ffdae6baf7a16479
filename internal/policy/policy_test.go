package policy

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/simrng"
)

func entries(n int) []cache.Entry {
	out := make([]cache.Entry, n)
	for i := range out {
		out[i] = cache.Entry{
			Addr:     cache.PeerID(i + 1),
			TS:       float64(i),
			NumFiles: int32(10 * (i + 1)),
			NumRes:   int32(i % 3),
			Direct:   i%2 == 0,
		}
	}
	return out
}

func TestSelectionStringAndParse(t *testing.T) {
	for _, s := range []Selection{SelRandom, SelMRU, SelLRU, SelMFS, SelMR, SelMRStar} {
		if !s.Valid() {
			t.Fatalf("%v not valid", s)
		}
		got, err := ParseSelection(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	if _, err := ParseSelection("bogus"); err == nil {
		t.Fatal("ParseSelection accepted bogus name")
	}
	if Selection(0).Valid() {
		t.Fatal("zero Selection reported valid")
	}
}

func TestEvictionStringAndParse(t *testing.T) {
	for _, ev := range []Eviction{EvRandom, EvLRU, EvMRU, EvLFS, EvLR, EvLRStar} {
		if !ev.Valid() {
			t.Fatalf("%v not valid", ev)
		}
		got, err := ParseEviction(ev.String())
		if err != nil || got != ev {
			t.Fatalf("round trip %v: got %v, err %v", ev, got, err)
		}
	}
	if _, err := ParseEviction("bogus"); err == nil {
		t.Fatal("ParseEviction accepted bogus name")
	}
}

func TestEvictionFor(t *testing.T) {
	pairs := map[Selection]Eviction{
		SelRandom: EvRandom,
		SelMRU:    EvLRU,
		SelLRU:    EvMRU,
		SelMFS:    EvLFS,
		SelMR:     EvLR,
		SelMRStar: EvLRStar,
	}
	//lint:maporder-ok iterations are independent checks; no state crosses entries
	for sel, want := range pairs {
		if got := EvictionFor(sel); got != want {
			t.Errorf("EvictionFor(%v) = %v, want %v", sel, got, want)
		}
	}
}

func TestScores(t *testing.T) {
	e := cache.Entry{TS: 5, NumFiles: 7, NumRes: 3, Direct: false}
	tests := []struct {
		sel  Selection
		want float64
	}{
		{SelMRU, 5},
		{SelLRU, -5},
		{SelMFS, 7},
		{SelMR, 3},
		{SelMRStar, 0}, // indirect NumRes distrusted
	}
	for _, tt := range tests {
		if got := tt.sel.Score(e); got != tt.want {
			t.Errorf("%v.Score = %v, want %v", tt.sel, got, tt.want)
		}
	}
	e.Direct = true
	if got := SelMRStar.Score(e); got != 3 {
		t.Errorf("MR* direct score = %v, want 3", got)
	}
}

func TestPick(t *testing.T) {
	es := entries(5)
	r := simrng.New(1)
	tests := []struct {
		sel  Selection
		want cache.PeerID
	}{
		{SelMRU, 5}, // newest TS
		{SelLRU, 1}, // oldest TS
		{SelMFS, 5}, // most files
	}
	for _, tt := range tests {
		i := Pick(r, tt.sel, es)
		if es[i].Addr != tt.want {
			t.Errorf("Pick(%v) chose %d, want %d", tt.sel, es[i].Addr, tt.want)
		}
	}
	if Pick(r, SelMFS, nil) != -1 {
		t.Error("Pick on empty slice did not return -1")
	}
	// Random picks stay in range and cover the slice.
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		j := Pick(r, SelRandom, es)
		if j < 0 || j >= len(es) {
			t.Fatalf("random pick %d out of range", j)
		}
		seen[j] = true
	}
	if len(seen) != len(es) {
		t.Errorf("random pick covered %d/%d indices", len(seen), len(es))
	}
}

func TestPickTieBreaksByIndex(t *testing.T) {
	es := []cache.Entry{{Addr: 1, NumFiles: 5}, {Addr: 2, NumFiles: 5}}
	if i := Pick(simrng.New(1), SelMFS, es); i != 0 {
		t.Fatalf("tie broke to index %d, want 0", i)
	}
}

func TestPickN(t *testing.T) {
	es := entries(6)
	r := simrng.New(2)

	got := PickN(r, SelMFS, es, 3)
	if len(got) != 3 {
		t.Fatalf("PickN returned %d indices", len(got))
	}
	// Top three by NumFiles are the last three entries.
	want := map[cache.PeerID]bool{4: true, 5: true, 6: true}
	for _, i := range got {
		if !want[es[i].Addr] {
			t.Fatalf("PickN(MFS) chose addr %d", es[i].Addr)
		}
	}

	if got := PickN(r, SelMFS, es, 100); len(got) != len(es) {
		t.Fatalf("PickN clamped to %d, want %d", len(got), len(es))
	}
	if PickN(r, SelMFS, es, 0) != nil {
		t.Fatal("PickN with n=0 returned entries")
	}
	if PickN(r, SelRandom, nil, 3) != nil {
		t.Fatal("PickN on empty slice returned entries")
	}
}

func TestPickNRandomDistinct(t *testing.T) {
	es := entries(10)
	r := simrng.New(3)
	f := func(uint8) bool {
		got := PickN(r, SelRandom, es, 4)
		seen := make(map[int]bool)
		for _, i := range got {
			if i < 0 || i >= len(es) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return len(got) == 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertWithRoom(t *testing.T) {
	c := cache.NewLinkCache(2)
	r := simrng.New(1)
	if !Insert(r, EvLFS, c, cache.Entry{Addr: 1, NumFiles: 1}) {
		t.Fatal("insert into empty cache failed")
	}
	if Insert(r, EvLFS, c, cache.Entry{Addr: 1, NumFiles: 99}) {
		t.Fatal("duplicate insert succeeded")
	}
}

func TestInsertEvictsWorst(t *testing.T) {
	c := cache.NewLinkCache(2)
	r := simrng.New(1)
	Insert(r, EvLFS, c, cache.Entry{Addr: 1, NumFiles: 10})
	Insert(r, EvLFS, c, cache.Entry{Addr: 2, NumFiles: 50})
	// Candidate with 30 files beats the 10-file resident.
	if !Insert(r, EvLFS, c, cache.Entry{Addr: 3, NumFiles: 30}) {
		t.Fatal("better candidate rejected")
	}
	if c.Has(1) || !c.Has(2) || !c.Has(3) {
		t.Fatal("wrong victim evicted")
	}
	// Candidate with 5 files loses to both residents.
	if Insert(r, EvLFS, c, cache.Entry{Addr: 4, NumFiles: 5}) {
		t.Fatal("worse candidate accepted")
	}
}

func TestInsertLRUKeepsRecent(t *testing.T) {
	c := cache.NewLinkCache(2)
	r := simrng.New(1)
	Insert(r, EvLRU, c, cache.Entry{Addr: 1, TS: 1})
	Insert(r, EvLRU, c, cache.Entry{Addr: 2, TS: 10})
	if !Insert(r, EvLRU, c, cache.Entry{Addr: 3, TS: 5}) {
		t.Fatal("fresher candidate rejected")
	}
	if c.Has(1) {
		t.Fatal("EvLRU kept the stalest entry")
	}
}

func TestInsertRandomProbability(t *testing.T) {
	r := simrng.New(9)
	const trials = 20000
	inserted := 0
	for i := 0; i < trials; i++ {
		c := cache.NewLinkCache(4)
		for j := 1; j <= 4; j++ {
			c.Add(cache.Entry{Addr: cache.PeerID(j)})
		}
		if Insert(r, EvRandom, c, cache.Entry{Addr: 99}) {
			inserted++
		}
		if c.Len() != 4 {
			t.Fatal("random insert changed cache size")
		}
	}
	got := float64(inserted) / trials
	if want := 4.0 / 5.0; math.Abs(got-want) > 0.02 {
		t.Fatalf("random insert rate %v, want ~%v", got, want)
	}
}

func TestSelectorScoredOrder(t *testing.T) {
	s := NewSelector(SelMFS, nil)
	for _, files := range []int32{5, 40, 10, 40, 1} {
		s.Add(cache.Entry{Addr: cache.PeerID(files), NumFiles: files})
	}
	var got []int32
	for {
		addr, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, int32(addr))
	}
	want := []int32{40, 40, 10, 5, 1}
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestSelectorFIFOOnTies: equal scores come out in the order they were
// added, over more Adds than a 16-bit arrival counter could number.
func TestSelectorFIFOOnTies(t *testing.T) {
	const n = 1<<16 + 50
	s := NewSelector(SelMFS, nil)
	for i := 1; i <= n; i++ {
		s.Add(cache.Entry{Addr: cache.PeerID(i), NumFiles: 7})
	}
	for i := 1; i <= n; i++ {
		addr, ok := s.Next()
		if !ok || addr != cache.PeerID(i) {
			t.Fatalf("tie order broken at %d: got %d", i, addr)
		}
	}
}

func TestSelectorRandomDrainsAll(t *testing.T) {
	s := NewSelector(SelRandom, simrng.New(4))
	want := make(map[cache.PeerID]bool)
	for i := 1; i <= 30; i++ {
		s.Add(cache.Entry{Addr: cache.PeerID(i)})
		want[cache.PeerID(i)] = true
	}
	if s.Len() != 30 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 30; i++ {
		addr, ok := s.Next()
		if !ok || !want[addr] {
			t.Fatalf("unexpected entry %v, ok=%v", addr, ok)
		}
		delete(want, addr)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next on empty selector returned an entry")
	}
}

// TestSelectorMatchesSort: for scored policies, draining the selector
// must equal sorting by (score desc, insertion order).
func TestSelectorMatchesSort(t *testing.T) {
	f := func(files []uint8) bool {
		s := NewSelector(SelMFS, nil)
		type rec struct {
			files int32
			seq   int
		}
		recs := make([]rec, len(files))
		for i, fl := range files {
			e := cache.Entry{Addr: cache.PeerID(i), NumFiles: int32(fl)}
			s.Add(e)
			recs[i] = rec{int32(fl), i}
		}
		sort.SliceStable(recs, func(a, b int) bool { return recs[a].files > recs[b].files })
		for _, r := range recs {
			addr, ok := s.Next()
			if !ok || int32(files[addr]) != r.files {
				return false
			}
		}
		_, ok := s.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
