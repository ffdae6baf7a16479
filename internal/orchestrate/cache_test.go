package orchestrate

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
)

func cacheEntry() (string, experiments.PointResult) {
	fp := experiments.DefaultFloodParams()
	pt := experiments.Point{Family: experiments.FamilyFlood, Flood: &fp}
	return pt.Key(), experiments.PointResult{
		Family: experiments.FamilyFlood,
		Flood:  &experiments.FloodResults{Queries: 10, Satisfied: 9, Unsatisfied: 1, Messages: 42},
	}
}

func TestMemoryCache(t *testing.T) {
	c := NewMemoryCache()
	key, pr := cacheEntry()
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, pr)
	got, ok := c.Get(key)
	if !ok || got.Flood.Messages != 42 {
		t.Fatalf("get after put: ok=%v, got %+v", ok, got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestDiskCachePersists(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, pr := cacheEntry()
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, pr)

	// A fresh handle on the same directory — a later run — sees it.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || got.Flood.Messages != 42 {
		t.Fatalf("get across reopen: ok=%v, got %+v", ok, got)
	}

	// Writes are tmp+rename: no temp litter remains.
	noTempFiles(t, dir)
}

// noTempFiles fails the test if dir holds a Put's temp file.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestDiskCacheConcurrentPutSameKey is two coordinators sharing a
// cache directory and finishing one point together: every Put writes
// its own temp file, so whichever rename lands last leaves a complete
// entry. The payloads differ in length (determinism would make them
// equal; unequal ones make an interleaved write visible) and Get must
// return one of them whole.
func TestDiskCacheConcurrentPutSameKey(t *testing.T) {
	dir := t.TempDir()
	key, pr := cacheEntry()
	const writers = 8
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			c, err := NewDiskCache(dir) // a handle per coordinator
			if err != nil {
				t.Fatal(err)
			}
			flood := *pr.Flood
			flood.Messages = int64(w)
			flood.PeerLoads = make([]int64, 1+w*500)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Put(key, experiments.PointResult{Family: experiments.FamilyFlood, Flood: &flood})
			}()
		}
		wg.Wait()
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok {
			t.Fatalf("round %d: concurrent Puts left no valid entry", round)
		}
		if want := 1 + int(got.Flood.Messages)*500; len(got.Flood.PeerLoads) != want {
			t.Fatalf("round %d: entry mixes two Puts: Messages %d with %d loads",
				round, got.Flood.Messages, len(got.Flood.PeerLoads))
		}
		noTempFiles(t, dir)
	}
}

// TestDiskCacheCorruptEntryIsMiss checks a damaged or truncated cache
// file degrades to recomputation, never to a bad result.
func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, pr := cacheEntry()
	c.Put(key, pr)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one cache file, got %d (err %v)", len(entries), err)
	}
	p := filepath.Join(dir, entries[0].Name())

	//lint:maporder-ok independent corruption cases; order affects nothing but failure order
	for name, body := range map[string]string{
		"not json":      "{{{{",
		"wrong shape":   `{"family":"flood"}`,
		"wrong family":  `{"family":"guess","flood":{"Queries":1}}`,
		"empty":         "",
		"valid but two": `{"family":"flood","flood":{"Queries":1},"core":{}}`,
	} {
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s: corrupt entry served as a hit", name)
		}
	}
}

// TestDiskCacheRejectsHostileKeys checks malformed keys can never
// become path escapes or files at all.
func TestDiskCacheRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, pr := cacheEntry()
	for _, key := range []string{
		"", "nokey", "guess:", ":abc", "guess:../../etc/passwd",
		"guess:ABC", "a/b:c0ffee", "guess:12 34",
	} {
		c.Put(key, pr)
		if _, ok := c.Get(key); ok {
			t.Fatalf("hostile key %q round-tripped", key)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("hostile keys created %d files", len(entries))
	}
}
