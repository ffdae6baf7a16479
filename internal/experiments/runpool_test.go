package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// tinyParams returns a minimal-cost parameter set for scheduling tests.
func tinyParams(seed uint64) core.Params {
	p := core.DefaultParams()
	p.NetworkSize = 30
	p.CacheSize = 5
	p.WarmupTime = 5
	p.MeasureTime = 20
	p.Seed = seed
	return p
}

// tinySpec wraps parameter sets in an unlabeled (never-memoized) GUESS
// sweep spec.
func tinySpec(params []core.Params) Spec {
	return Spec{Family: FamilyGUESS, Core: params}
}

// TestRunSpecPreservesOrderAndSeeding checks that the worker pool
// returns results in input order with per-index seed derivation:
// results must match a serial (Parallelism=1) run point for point.
func TestRunSpecPreservesOrderAndSeeding(t *testing.T) {
	params := make([]core.Params, 9)
	for i := range params {
		params[i] = tinyParams(7)
		params[i].CacheSize = 5 + i // distinguish points
	}
	serial, err := RunSpec(Options{Parallelism: 1}, tinySpec(params))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunSpec(Options{Parallelism: 4}, tinySpec(params))
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != len(params) {
		t.Fatalf("got %d results, want %d", len(pooled), len(params))
	}
	for i := range params {
		got, err := json.Marshal(pooled[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(serial[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("point %d: pooled result %s differs from serial %s", i, got, want)
		}
	}
}

// TestPoolRunsEveryFamily checks that the pool is not a GUESS-only
// path: a gossip sweep at Parallelism 2 returns, in spec order, what
// RunPoint returns for each point. (make race runs it under the
// detector: two goroutines each own a Worker over one result slice.)
func TestPoolRunsEveryFamily(t *testing.T) {
	spec := Spec{Family: FamilyGossip}
	base := *tinyFamilyPoints()[2].Gossip
	for i := 0; i < 5; i++ {
		p := base
		p.Seed = uint64(i + 1)
		p.Fanout = 2 + i%2 // distinguish points beyond the seed
		spec.Gossip = append(spec.Gossip, p)
	}
	pooled, err := RunSpec(Options{Parallelism: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != len(spec.Gossip) {
		t.Fatalf("got %d results, want %d", len(pooled), len(spec.Gossip))
	}
	for i := range spec.Gossip {
		want, err := RunPoint(context.Background(), spec.Point(i), Observation{})
		if err != nil {
			t.Fatal(err)
		}
		if got, w := mustJSON(t, pooled[i]), mustJSON(t, want); got != w {
			t.Fatalf("point %d: pooled result %s differs from RunPoint's %s", i, got, w)
		}
	}
}

// TestRunSpecBoundsGoroutines verifies the pool spawns at most
// min(parallelism, len(points)) workers rather than one goroutine per
// parameter set.
func TestRunSpecBoundsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	params := make([]core.Params, 24)
	for i := range params {
		params[i] = tinyParams(uint64(i + 1))
	}
	// Sample concurrent goroutine count from inside the runs via the
	// progress writer, which every completed run touches.
	opts := Options{Parallelism: 2, Progress: goroutineSampler{&peak}}
	if _, err := RunSpec(opts, tinySpec(params)); err != nil {
		t.Fatal(err)
	}
	// Allow slack for test-harness goroutines; the point is that 24
	// params with parallelism 2 must not show ~24 extra goroutines.
	if got := peak.Load(); got > int64(before+8) {
		t.Fatalf("peak goroutines %d with 2 workers over %d params (baseline %d): pool is not bounded",
			got, len(params), before)
	}
}

type goroutineSampler struct{ peak *atomic.Int64 }

func (s goroutineSampler) Write(p []byte) (int, error) {
	n := int64(runtime.NumGoroutine())
	for {
		old := s.peak.Load()
		if n <= old || s.peak.CompareAndSwap(old, n) {
			break
		}
	}
	return len(p), nil
}

// TestMemoKeyDistinguishesParams is the satellite's regression test:
// sweeps sharing label, scale, seed, and replications but differing in
// params — or in protocol family — must get distinct memo keys.
func TestMemoKeyDistinguishesParams(t *testing.T) {
	opts := Options{Scale: Quick, Seed: 3, Replications: 2}
	a := []core.Params{tinyParams(1), tinyParams(2)}
	b := []core.Params{tinyParams(1), tinyParams(2)}
	b[1].CacheSize++ // one field differs
	keyA := memoKey("guess", opts, "sweep", paramsDigest(a))
	keyB := memoKey("guess", opts, "sweep", paramsDigest(b))
	if keyA == keyB {
		t.Fatalf("memoKey collision for differing params: %q", keyA)
	}
	// Same params, same key (memoization must still hit).
	if again := memoKey("guess", opts, "sweep", paramsDigest(a)); again != keyA {
		t.Fatalf("memoKey not stable: %q vs %q", again, keyA)
	}
	// Length-prefixing: one sweep of two sets vs two concatenation-
	// ambiguous variants must differ.
	if paramsDigest(a) == paramsDigest(a[:1]) {
		t.Fatal("paramsDigest ignores params length")
	}
	// Other key components still participate.
	if memoKey("guess", Options{Seed: 4}, "sweep", paramsDigest(a)) ==
		memoKey("guess", Options{Seed: 5}, "sweep", paramsDigest(a)) {
		t.Fatal("memoKey ignores seed")
	}
	if memoKey("guess", opts, "x", paramsDigest(a)) == memoKey("guess", opts, "y", paramsDigest(a)) {
		t.Fatal("memoKey ignores label")
	}
	if !strings.Contains(keyA, "sweep|") {
		t.Fatalf("memoKey %q lost its label prefix", keyA)
	}
	// The family discriminator: identical label, options, and digest
	// under different protocol families must never share a cache slot —
	// a cached flood/GUESS sweep must be unreachable from a gossip or
	// DHT lookup with otherwise-identical inputs.
	d := paramsDigest(a)
	if memoKey("guess", opts, "sweep", d) == memoKey("gossip", opts, "sweep", d) {
		t.Fatal("memoKey ignores protocol family (guess vs gossip)")
	}
	if memoKey("gossip", opts, "sweep", d) == memoKey("dht", opts, "sweep", d) {
		t.Fatal("memoKey ignores protocol family (gossip vs dht)")
	}
}

// TestPoolDispatchesCostliestFirst checks the order runPool's workers
// take a batch in, and that the order changes no result: the costliest
// GUESS point goes first, ties keep input order, a lone worker and a
// family without a cost estimate keep input order, and a pooled run's
// results equal a serial run's byte for byte.
func TestPoolDispatchesCostliestFirst(t *testing.T) {
	params := make([]core.Params, 6)
	for i, c := range []int{5, 9, 7, 9, 5, 7} {
		params[i] = tinyParams(7)
		params[i].CacheSize = c
	}
	params[5].MeasureTime *= 3 // 7 × 3 outweighs every 9
	spec := tinySpec(params)
	pts := make([]Point, spec.NumPoints())
	for i := range pts {
		pts[i] = spec.Point(i)
	}
	if got, want := poolOrder(pts, 2), []int{5, 1, 3, 2, 0, 4}; !slices.Equal(got, want) {
		t.Fatalf("two workers take the points in order %v, want %v", got, want)
	}
	if got, want := poolOrder(pts, 1), []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("one worker takes the points in order %v, want input order %v", got, want)
	}
	gossip := tinyFamilyPoints()[2]
	if got := poolOrder([]Point{gossip, gossip, gossip}, 2); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("gossip points taken in order %v, want input order", got)
	}

	serial, err := RunSpec(Options{Parallelism: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	pooled, err := RunSpec(Options{Parallelism: 2, Progress: &progress}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Progress counts completions, whichever point completed.
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	for i, line := range lines {
		if want := fmt.Sprintf("run %d/6 done (N=30 cache=", i+1); !strings.Contains(line, want) {
			t.Fatalf("progress line %d is %q, want it to contain %q", i, line, want)
		}
	}
	for i := range serial {
		if got, want := mustJSON(t, pooled[i]), mustJSON(t, serial[i]); got != want {
			t.Fatalf("point %d: pooled result %s differs from serial %s", i, got, want)
		}
	}
}
