package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestParallelProgressRace drives two concurrent sweeps that share one
// unsynchronized progress writer. progressMu (package-level, not
// per-call) must serialize the writes; run under -race this fails if
// it ever stops doing so.
func TestParallelProgressRace(t *testing.T) {
	var progress strings.Builder // not safe for concurrent use on its own
	params := make([]core.Params, 6)
	for i := range params {
		params[i] = tinyParams(uint64(i + 1))
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunSpec(Options{Parallelism: 2, Progress: &progress}, tinySpec(params))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(progress.String(), "\n"); got != 2*len(params) {
		t.Fatalf("progress wrote %d lines, want %d", got, 2*len(params))
	}
}

// TestRunSpecContextCancel pins the sweep-level cancellation contract:
// a cancelled context stops the sweep and surfaces ctx.Err() (a partial
// sweep is not meaningful, unlike a partial single run).
func TestRunSpecContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	params := []core.Params{tinyParams(1), tinyParams(2), tinyParams(3)}
	_, err := RunSpec(Options{Context: ctx, Parallelism: 2}, tinySpec(params))
	if err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestRunSpecForwardsObserverAndMetrics checks that sweep options take
// effect: the observer sees events from every run and the metrics
// counters aggregate across runs.
func TestRunSpecForwardsObserverAndMetrics(t *testing.T) {
	params := []core.Params{tinyParams(1), tinyParams(2)}
	reg := obs.NewRegistry()
	var mu sync.Mutex
	births := 0
	opts := Options{
		Parallelism: 2,
		Metrics:     reg,
		Observer: obs.ObserverFunc(func(ev obs.Event) {
			if ev.Kind == obs.EvPeerBirth {
				mu.Lock()
				births++
				mu.Unlock()
			}
		}),
	}
	results, err := RunSpec(opts, tinySpec(params))
	if err != nil {
		t.Fatal(err)
	}
	wantBirths := 0
	for _, r := range results {
		wantBirths += r.Core.Births
	}
	if births != wantBirths {
		t.Fatalf("observer saw %d births, results say %d", births, wantBirths)
	}
	if got := reg.Snapshot().Counters["guess_sim_births_total"]; got != uint64(wantBirths) {
		t.Fatalf("metrics aggregated %d births, results say %d", got, wantBirths)
	}
}
