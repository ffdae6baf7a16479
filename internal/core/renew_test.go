package core

// Renew recycles one engine's storage into the next run. These tests
// pin the contract that recycling is invisible: a chain of Renewed
// engines produces byte-identical Results and traces to fresh engines
// run one by one, across configurations that exercise every recycled
// structure (link caches, libraries, poison maps, the event queue, the
// query pool) and across capacity changes that force the pools to
// adapt or drop.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/policy"
)

// runTracedRenew runs each params in sequence on one engine chain
// (New, then Renew, Renew, ...) and returns marshaled Results plus the
// CSV trace per run.
func runTracedRenew(t *testing.T, params []Params) ([]string, []string) {
	t.Helper()
	results := make([]string, len(params))
	traces := make([]string, len(params))
	var e *Engine
	var err error
	for i, p := range params {
		var trace strings.Builder
		p.Trace = &trace
		if e == nil {
			e, err = New(p)
		} else {
			e, err = e.Renew(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		results[i] = marshalResults(t, res)
		traces[i] = trace.String()
	}
	return results, traces
}

// TestRenewMatchesFresh is the recycling determinism guarantee: a
// worker chaining Renew across a sweep must produce exactly what fresh
// engines would, even when consecutive configs differ in cache
// capacity (dropping the cache pool), network size (growing or
// truncating the peer arrays), enabled extensions (recycled poison
// maps), and the size of the item universe (the libraries' slot width).
func TestRenewMatchesFresh(t *testing.T) {
	base := quickParams()
	base.MeasureTime = 200

	small := base
	small.NetworkSize = 150
	small.CacheSize = 6 // different capacity: freeCaches must be dropped

	poisoned := base
	poisoned.PercentBadPeers = 20
	poisoned.BadPong = BadPongGood
	poisoned.PoisonDetection = true
	poisoned.QueryProbe = policy.SelMFS
	poisoned.CacheReplacement = policy.EvLFS

	churny := base
	churny.LifespanMultiplier = 0.3
	churny.SampleConnectivity = true
	churny.Seed = 9

	// More items than a 16-bit library slot holds: the recycled libraries
	// change table width on the way in and on the way out.
	manyItems := base
	manyItems.Content.NumItems = 70_000
	manyItems.Seed = 3

	chain := []Params{base, small, base, poisoned, churny, manyItems, base}
	gotRes, gotTrace := runTracedRenew(t, chain)
	for i, p := range chain {
		res, wantTrace := runWithTrace(t, p)
		if wantRes := marshalResults(t, res); gotRes[i] != wantRes {
			t.Errorf("run %d: Renewed Results diverged from fresh:\n%s\n%s", i, gotRes[i], wantRes)
		}
		if gotTrace[i] != wantTrace {
			l1, l2 := strings.Split(wantTrace, "\n"), strings.Split(gotTrace[i], "\n")
			for j := 0; j < len(l1) && j < len(l2); j++ {
				if l1[j] != l2[j] {
					t.Fatalf("run %d: trace diverged at line %d:\nfresh:   %q\nrenewed: %q",
						i, j, l1[j], l2[j])
				}
			}
			t.Fatalf("run %d: trace lengths diverged: %d vs %d lines", i, len(l1), len(l2))
		}
		if wantTrace == "" {
			t.Fatal("empty trace; comparison is vacuous")
		}
	}
}

// TestRenewRequiresRun pins the single-use discipline: an engine that
// has not run cannot donate its storage (it is still using it).
func TestRenewRequiresRun(t *testing.T) {
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Renew(quickParams()); err == nil {
		t.Fatal("Renew before Run accepted")
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
	if _, err := e.Renew(quickParams()); err != nil {
		t.Fatalf("Renew after Run rejected: %v", err)
	}
}
