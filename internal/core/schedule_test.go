package core

// schedule queues no event past the end of the run. Run's loop stops in
// front of the first such event, so none of them could fire; these tests
// hold the engine against one that queues everything (queueAll, the way
// the engine worked before) and demand the same Results, CSV trace and
// observer event stream, byte for byte.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// recordedRun is everything a run shows the outside.
type recordedRun struct {
	results, trace string
	events         []obs.Event
	cacheSamples   int
	// left counts, by kind, the events still queued when Run returned.
	left map[evKind]int
}

// runRecorded runs p on a fresh engine, or on prev's storage, with every
// output recorded.
func runRecorded(t *testing.T, p Params, prev *Engine, queueAll bool) (*Engine, recordedRun) {
	t.Helper()
	var trace strings.Builder
	p.Trace = &trace
	var e *Engine
	var err error
	if prev == nil {
		e, err = New(p)
	} else {
		e, err = prev.Renew(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	e.queueAll = queueAll
	var rec recordedRun
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) { rec.events = append(rec.events, ev) }))
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec.results, rec.trace, rec.cacheSamples = marshalResults(t, res), trace.String(), res.CacheSamples
	rec.left = map[evKind]int{}
	for {
		at, ev, ok := e.events.Pop()
		if !ok {
			break
		}
		if at <= e.end {
			t.Fatalf("Run returned with an event of kind %d at %v queued, inside the run (end %v)", ev.kind, at, e.end)
		}
		rec.left[ev.kind]++
	}
	return e, rec
}

// requireSameRun fails unless got shows what want does.
func requireSameRun(t *testing.T, what string, got, want recordedRun) {
	t.Helper()
	if got.results != want.results {
		t.Fatalf("%s: Results differ:\n%s\n%s", what, got.results, want.results)
	}
	if got.trace != want.trace {
		t.Fatalf("%s: CSV traces differ:\n%s\n%s", what, got.trace, want.trace)
	}
	if want.trace == "" || len(want.events) == 0 {
		t.Fatalf("%s: empty trace or event stream; the comparison is vacuous", what)
	}
	if !slices.Equal(got.events, want.events) {
		for i := 0; i < len(got.events) && i < len(want.events); i++ {
			if got.events[i] != want.events[i] {
				t.Fatalf("%s: event %d differs:\n%+v\n%+v", what, i, got.events[i], want.events[i])
			}
		}
		t.Fatalf("%s: %d events, want %d", what, len(got.events), len(want.events))
	}
}

// scheduleTestConfigs are runs whose queues end differently: each leaves
// some kind of event past the end, or none where one might expect it.
func scheduleTestConfigs() map[string]Params {
	base := quickParams()
	base.MeasureTime = 200
	cfgs := map[string]Params{}

	p := base
	p.QueryRate = 0.06 // a burst every quarter minute per peer
	cfgs["bursty"] = p

	p = base
	p.MaxProbesPerQuery = 7
	cfgs["max-probes"] = p

	p = base
	p.MaxProbesPerSecond = 3
	p.DoBackoff = true
	cfgs["backoff"] = p

	p = base
	p.PercentBadPeers = 25
	p.BadPong = BadPongDead
	p.PoisonDetection = true
	cfgs["bad-peers"] = p

	p = base
	p.AdaptivePing = true
	cfgs["adaptive-ping"] = p

	p = base
	p.LifespanMultiplier = 0.05 // most deaths fall inside the run
	cfgs["short-lives"] = p

	p = base
	p.SampleInterval = 70 // 100, 170, 240: the next sample would be at 310 > 300
	cfgs["sample-not-dividing"] = p

	// Enough peers querying for exhaustive searches (no peer holds a
	// nonexistent item) to be in flight when the run ends, and a sample
	// interval that puts the last sample exactly at the end.
	p = base
	p.NetworkSize = 500
	p.WarmupTime, p.MeasureTime = 20, 40
	p.QueryRate = 0.05
	p.SampleInterval = 10
	cfgs["in-flight"] = p

	return cfgs
}

func TestRunMatchesUnfilteredQueue(t *testing.T) {
	//lint:maporder-ok subtests are independent; execution order does not affect any result
	for name, p := range scheduleTestConfigs() {
		t.Run(name, func(t *testing.T) {
			left := map[evKind]int{}
			for seed := uint64(1); seed <= 3; seed++ {
				p.Seed = seed * 17
				_, want := runRecorded(t, p, nil, true)
				_, got := runRecorded(t, p, nil, false)
				requireSameRun(t, name, got, want)
				if len(got.left) != 0 {
					t.Fatalf("seed %d: events left in the filtered queue: %v", p.Seed, got.left)
				}
				//lint:maporder-ok summing counts; order does not matter
				for k, n := range want.left {
					left[k] += n
				}
				// Samples at 20, 30, 40, 50 and, exactly at the end, 60; at
				// 100, 170 and 240, the next one past the end at 310.
				if n, ok := map[string]int{"in-flight": 5, "sample-not-dividing": 3}[name]; ok && got.cacheSamples != n {
					t.Fatalf("seed %d: %d samples, want %d", p.Seed, got.cacheSamples, n)
				}
			}
			// The reference must have had something to drop, or the
			// comparison shows nothing.
			for _, k := range []evKind{evDeath, evPing, evBurst} {
				if left[k] == 0 {
					t.Fatalf("the unfiltered queue ended with no event of kind %d past the end", k)
				}
			}
			if name == "in-flight" && left[evProbeStep] == 0 {
				t.Fatal("no query was in flight at the end of the run")
			}
		})
	}
}

// TestRenewAcrossRunLengths chains engines whose runs get shorter and
// longer: end belongs to the renewed engine, not to the storage it
// inherits.
func TestRenewAcrossRunLengths(t *testing.T) {
	base := quickParams()
	base.MeasureTime = 200
	short := base
	short.WarmupTime, short.MeasureTime = 50, 30
	short.SampleInterval = 20
	long := base
	long.MeasureTime = 450
	long.Seed = 5

	var prev *Engine
	for i, p := range []Params{base, short, long, short, base} {
		_, want := runRecorded(t, p, nil, true)
		var got recordedRun
		prev, got = runRecorded(t, p, prev, false)
		requireSameRun(t, fmt.Sprintf("run %d", i), got, want)
	}
}

// TestScheduleFilterIsTheLoops pins the boundary: an event at exactly
// end is queued (Run's loop handles t == end), the next float after it
// is not.
func TestScheduleFilterIsTheLoops(t *testing.T) {
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if e.end != e.p.WarmupTime+e.p.MeasureTime {
		t.Fatalf("end = %v before Run, want %v", e.end, e.p.WarmupTime+e.p.MeasureTime)
	}
	e.schedule(e.end, event{kind: evPing, peer: 1})
	if e.events.Len() != 1 {
		t.Fatal("an event at exactly end was not queued")
	}
	e.schedule(math.Nextafter(e.end, math.Inf(1)), event{kind: evPing, peer: 1})
	e.schedule(math.Inf(1), event{kind: evDeath, peer: 1})
	if e.events.Len() != 1 {
		t.Fatal("an event past end was queued")
	}
}
