package orchestrate

// Shared result caches keyed by a point's content address
// (experiments.Point.Key — family discriminator plus sha256 params
// digest). Determinism makes cached results exact: two points with the
// same key produce identical results, so a cache hit is never an
// approximation. The disk cache persists across runs, which is how a
// re-run sweep (or a crashed-and-restarted one) skips every point a
// prior run already computed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/frame"
)

// Cache shares computed point results. Get reports a hit only for a
// complete, valid result; Put is best-effort (a cache is an
// optimization, and a failed Put must not fail the sweep).
// Implementations must be safe for concurrent use.
type Cache interface {
	Get(key string) (experiments.PointResult, bool)
	Put(key string, pr experiments.PointResult)
}

// MemoryCache is an in-process Cache.
type MemoryCache struct {
	mu sync.RWMutex
	m  map[string]experiments.PointResult
}

// NewMemoryCache returns an empty in-process cache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{m: make(map[string]experiments.PointResult)}
}

// Get implements Cache.
func (c *MemoryCache) Get(key string) (experiments.PointResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pr, ok := c.m[key]
	return pr, ok
}

// Put implements Cache.
func (c *MemoryCache) Put(key string, pr experiments.PointResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = pr
}

// Len returns the number of cached results.
func (c *MemoryCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// DiskCache is a Cache backed by one JSON file per point under a
// directory, which several coordinators may share. Writes go through
// frame.WriteFileAtomic (each Put its own temp file, fsynced, then
// renamed), so neither a crash mid-Put nor two Puts of one key can
// leave a truncated or interleaved entry; a file that fails to read,
// parse, or validate is treated as a miss.
type DiskCache struct {
	dir string
}

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("orchestrate: disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// path maps a content-address key to a file name. Keys have the shape
// family:hexdigest; anything else is rejected so a hostile or corrupt
// key can never become a path escape.
func (c *DiskCache) path(key string) (string, bool) {
	fam, digest, ok := strings.Cut(key, ":")
	if !ok || fam == "" || digest == "" {
		return "", false
	}
	for _, r := range fam + digest {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		default:
			return "", false
		}
	}
	return filepath.Join(c.dir, fam+"_"+digest+".json"), true
}

// Get implements Cache.
func (c *DiskCache) Get(key string) (experiments.PointResult, bool) {
	p, ok := c.path(key)
	if !ok {
		return experiments.PointResult{}, false
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return experiments.PointResult{}, false
	}
	var pr experiments.PointResult
	if err := json.Unmarshal(data, &pr); err != nil {
		return experiments.PointResult{}, false
	}
	if err := pr.Validate(); err != nil {
		return experiments.PointResult{}, false
	}
	return pr, true
}

// Put implements Cache. Errors are swallowed: an unwritable cache
// degrades to recomputation, never to a failed sweep.
func (c *DiskCache) Put(key string, pr experiments.PointResult) {
	p, ok := c.path(key)
	if !ok {
		return
	}
	data, err := json.Marshal(pr)
	if err != nil {
		return
	}
	_ = frame.WriteFileAtomic(p, data) // best-effort, see above
}
