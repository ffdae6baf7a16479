package node

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/node/memnet"
)

func healthCfg(threshold int, cooldown time.Duration) Config {
	cfg := Default()
	cfg.BreakerThreshold = threshold
	cfg.BreakerCooldown = cooldown
	return cfg
}

// TestBreakerDisabledEvictsImmediately locks the default: with
// threshold 0 a fully timed-out probe evicts, as the paper specifies.
func TestBreakerDisabledEvictsImmediately(t *testing.T) {
	h := newPeerHealth(healthCfg(0, time.Second))
	evict, opened := h.onTimeout(1, time.Now())
	if !evict || opened {
		t.Fatalf("disabled breaker: evict=%v opened=%v, want evict only", evict, opened)
	}
	if h.len() != 0 {
		t.Fatal("state retained for evicted peer")
	}
}

// TestBreakerLifecycle walks closed -> open -> half-open -> closed and
// the eviction path out of half-open.
func TestBreakerLifecycle(t *testing.T) {
	h := newPeerHealth(healthCfg(3, time.Second))
	now := time.Unix(100, 0)

	// Two timeouts: still closed, not suppressed, not evicted.
	for i := 0; i < 2; i++ {
		if evict, opened := h.onTimeout(1, now); evict || opened {
			t.Fatalf("timeout %d below threshold: evict=%v opened=%v", i+1, evict, opened)
		}
	}
	if h.suppressed(1, now) {
		t.Fatal("closed breaker suppresses")
	}
	// Third trips it open: suppressed until the cooldown elapses.
	evict, opened := h.onTimeout(1, now)
	if evict || !opened {
		t.Fatalf("threshold timeout: evict=%v opened=%v, want open", evict, opened)
	}
	if h.open() != 1 {
		t.Fatalf("open count %d, want 1", h.open())
	}
	if !h.suppressed(1, now.Add(500*time.Millisecond)) {
		t.Fatal("open breaker does not suppress")
	}
	// Cooldown elapsed: half-open, no longer suppressed (trial allowed).
	if h.suppressed(1, now.Add(1100*time.Millisecond)) {
		t.Fatal("half-open breaker still suppresses")
	}
	// Successful trial closes and clears.
	h.onSuccess(1)
	if h.open() != 0 || h.len() != 0 {
		t.Fatalf("success did not clear breaker: open=%d len=%d", h.open(), h.len())
	}

	// Again to half-open, this time the trial fails: evict.
	for i := 0; i < 3; i++ {
		h.onTimeout(2, now)
	}
	if h.suppressed(2, now.Add(2*time.Second)) {
		t.Fatal("cooldown did not half-open")
	}
	if evict, _ := h.onTimeout(2, now.Add(2*time.Second)); !evict {
		t.Fatal("failed half-open trial did not evict")
	}
	if h.open() != 0 || h.len() != 0 {
		t.Fatalf("eviction did not clear breaker state: open=%d len=%d", h.open(), h.len())
	}
}

// TestBusyResetsTimeoutStreak: a Busy is a live reply, so it must not
// stack toward the breaker threshold.
func TestBusyResetsTimeoutStreak(t *testing.T) {
	cfg := healthCfg(2, time.Second)
	cfg.BusyBackoff = 10 * time.Millisecond
	h := newPeerHealth(cfg)
	now := time.Unix(200, 0)
	h.onTimeout(1, now)
	h.onBusy(1, now)
	if _, opened := h.onTimeout(1, now); opened {
		t.Fatal("breaker opened though Busy reset the streak")
	}
}

// TestBusyDemotionSemantics mirrors the pre-existing demotion behavior
// through the unified health layer.
func TestBusyDemotionSemantics(t *testing.T) {
	// Disabled backoff: evict on first Busy.
	h := newPeerHealth(healthCfg(0, time.Second))
	if evict, demoted := h.onBusy(1, time.Now()); !evict || demoted {
		t.Fatalf("no-backoff Busy: evict=%v demoted=%v", evict, demoted)
	}

	// Enabled: exponential suppression, eviction at the third Busy.
	cfg := healthCfg(0, time.Second)
	cfg.BusyBackoff = 10 * time.Millisecond
	h = newPeerHealth(cfg)
	now := time.Unix(300, 0)
	if evict, demoted := h.onBusy(1, now); evict || !demoted {
		t.Fatal("first Busy should demote, not evict")
	}
	if !h.suppressed(1, now.Add(5*time.Millisecond)) {
		t.Fatal("demoted peer not suppressed")
	}
	if h.suppressed(1, now.Add(11*time.Millisecond)) {
		t.Fatal("suppression did not expire")
	}
	if evict, _ := h.onBusy(1, now); evict {
		t.Fatal("second Busy should still demote")
	}
	// The second suppression lasts exactly 2*BusyBackoff.
	if !h.suppressed(1, now.Add(20*time.Millisecond-time.Nanosecond)) {
		t.Fatal("second suppression shorter than 2*BusyBackoff")
	}
	if h.suppressed(1, now.Add(20*time.Millisecond)) {
		t.Fatal("second suppression longer than 2*BusyBackoff")
	}
	if evict, _ := h.onBusy(1, now); !evict {
		t.Fatal("third Busy should evict")
	}
	if h.len() != 0 {
		t.Fatal("evicted peer state retained")
	}
}

// TestHealthPruneTo: state for peers no longer in the link cache is
// reclaimed, including open-breaker accounting.
func TestHealthPruneTo(t *testing.T) {
	h := newPeerHealth(healthCfg(1, time.Second))
	link := cache.NewLinkCache(4)
	link.Add(cache.Entry{Addr: 1})
	now := time.Now()
	h.onTimeout(1, now) // opens (threshold 1)
	h.onTimeout(2, now) // opens for a peer not in the cache
	if h.open() != 2 || h.len() != 2 {
		t.Fatalf("setup: open=%d len=%d", h.open(), h.len())
	}
	h.pruneTo(link)
	if h.len() != 1 || h.open() != 1 {
		t.Fatalf("prune kept stale state: open=%d len=%d", h.open(), h.len())
	}
}

// TestHealthMapPrunedOnCacheChurn is the end-to-end satellite: a peer
// whose health state exists (Busy-demoted) must have that state
// reclaimed once cache churn replaces it, so the map cannot grow
// without bound.
func TestHealthMapPrunedOnCacheChurn(t *testing.T) {
	leakCheck(t)
	nw := memnet.New(71)
	busy := startMemNode(t, nw, Config{
		Files:              []string{"crowded.txt"},
		MaxProbesPerSecond: 1,
		PingInterval:       time.Hour,
		Seed:               2,
	})
	cfg := chaosCfg(5)
	cfg.CacheSize = 2
	cfg.BusyBackoff = 50 * time.Millisecond
	querier := startMemNode(t, nw, cfg)
	querier.AddPeer(busy.Addr(), 1)

	// Exhaust the busy node's capacity, then get refused: the querier
	// demotes it, creating health state.
	ctx := context.Background()
	if _, _, err := querier.Query(ctx, "crowded", 1); err != nil {
		t.Fatal(err)
	}
	if _, qs, err := querier.Query(ctx, "crowded", 1); err != nil || qs.Refused != 1 {
		t.Fatalf("expected one refusal, got %+v (err=%v)", qs, err)
	}
	querier.mu.Lock()
	tracked := querier.health.len()
	querier.mu.Unlock()
	if tracked != 1 {
		t.Fatalf("demotion tracked %d peers, want 1", tracked)
	}

	// Churn the size-2 cache until the demoted peer is replaced; the
	// health map must shed its entry with it.
	for i := 0; i < 8; i++ {
		s := startMemNode(t, nw, Config{PingInterval: time.Hour, Seed: uint64(i + 10)})
		querier.AddPeer(s.Addr(), 1)
	}
	if cacheHolds(querier, busy.Addr().String()) {
		t.Skip("random replacement kept the demoted peer (seed-dependent)")
	}
	querier.mu.Lock()
	tracked = querier.health.len()
	querier.mu.Unlock()
	if tracked != 0 {
		t.Fatalf("health map retains %d entries for evicted peers", tracked)
	}
}
