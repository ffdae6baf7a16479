package dht

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// testParams is a small, fast configuration exercising loss, churn,
// and both replication mechanisms.
func testParams() Params {
	p := DefaultParams()
	p.NetworkSize = 150
	p.NumLookups = 120
	p.DeadFraction = 0.15
	p.LossProb = 0.05
	p.Seed = 11
	return p
}

func run(t *testing.T, p Params) *Results {
	t.Helper()
	res, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func marshal(t *testing.T, res *Results) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NetworkSize = 1 },
		func(p *Params) { p.BaseReplicas = 0 },
		func(p *Params) { p.BaseReplicas = p.NetworkSize + 1 },
		func(p *Params) { p.CacheSize = -1 },
		func(p *Params) { p.CacheProb = -0.1 },
		func(p *Params) { p.CacheProb = 1.1 },
		func(p *Params) { p.SeedCacheFraction = 2 },
		func(p *Params) { p.MaxHops = 0 },
		func(p *Params) { p.HopLatency = 0 },
		func(p *Params) { p.NumLookups = 0 },
		func(p *Params) { p.NumDesiredResults = 0 },
		func(p *Params) { p.LookupRate = -1 },
		func(p *Params) { p.DeadFraction = 1 },
		func(p *Params) { p.LossProb = 1 },
		func(p *Params) { p.Content.NumItems = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid params", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := run(t, testParams())
	b := run(t, testParams())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results:\n%s\n%s", marshal(t, a), marshal(t, b))
	}
	p := testParams()
	p.Seed++
	c := run(t, p)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results")
	}
}

// checkInvariants asserts the conservation and budget invariants the
// cross-protocol suite relies on.
func checkInvariants(t *testing.T, p Params, res *Results) {
	t.Helper()
	if res.Lookups != p.NumLookups {
		t.Errorf("completed %d lookups, want %d", res.Lookups, p.NumLookups)
	}
	if res.Satisfied+res.Unsatisfied != res.Lookups {
		t.Errorf("satisfied %d + unsatisfied %d != lookups %d", res.Satisfied, res.Unsatisfied, res.Lookups)
	}
	if res.MessagesSent != res.MessagesDelivered+res.MessagesDropped {
		t.Errorf("conservation violated: sent %d != delivered %d + dropped %d",
			res.MessagesSent, res.MessagesDelivered, res.MessagesDropped)
	}
	if s := res.Satisfaction(); s < 0 || s > 1 {
		t.Errorf("satisfaction %v outside [0,1]", s)
	}
	if res.MaxHopsUsed > p.MaxHops {
		t.Errorf("a lookup used %d hops, budget %d", res.MaxHopsUsed, p.MaxHops)
	}
	var delivered int64
	for v, l := range res.PeerLoads {
		if l < 0 {
			t.Errorf("peer %d has negative load", v)
		}
		delivered += l
	}
	if delivered != res.MessagesDelivered {
		t.Errorf("peer loads sum to %d, delivered %d", delivered, res.MessagesDelivered)
	}
}

func TestInvariantsAndEffectiveness(t *testing.T) {
	p := testParams()
	res := run(t, p)
	checkInvariants(t, p, res)
	if res.Satisfaction() < 0.5 {
		t.Errorf("satisfaction %v suspiciously low for a DHT", res.Satisfaction())
	}
	if res.AvgHops() >= float64(p.MaxHops) {
		t.Errorf("average hops %v should be far below the budget %v", res.AvgHops(), p.MaxHops)
	}
}

func TestCachingCutsHops(t *testing.T) {
	cold := testParams()
	cold.CacheSize = 0
	cold.SeedCacheFraction = 0
	cold.CacheProb = 0
	warm := testParams()
	warm.CacheSize = 64
	warm.SeedCacheFraction = 0.2
	warm.CacheProb = 0.8
	a, b := run(t, cold), run(t, warm)
	if b.CacheHits == 0 {
		t.Fatal("warm configuration produced no cache hits")
	}
	if a.CacheHits != 0 {
		t.Fatalf("cold configuration produced %d cache hits", a.CacheHits)
	}
	if b.AvgHops() >= a.AvgHops() {
		t.Errorf("caching should cut hops: warm %v >= cold %v", b.AvgHops(), a.AvgHops())
	}
}

func TestObservabilityDoesNotPerturbRun(t *testing.T) {
	p := testParams()
	bare := run(t, p)

	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var done int
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) {
		if ev.Kind == obs.EvQueryDone {
			done++
		}
	}))
	instr, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got, want := marshal(t, instr), marshal(t, bare); got != want {
		t.Fatalf("attaching an observer changed Results:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if done != bare.Lookups {
		t.Errorf("observer saw %d query_done events, Results say %d", done, bare.Lookups)
	}
}

func TestRunContextCancellation(t *testing.T) {
	full := run(t, testParams())
	if full.Interrupted {
		t.Fatal("uncancelled run reported Interrupted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	e.SetObserver(obs.ObserverFunc(func(obs.Event) {
		seen++
		if seen == 100 {
			cancel()
		}
	}))
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatalf("cancelled run should return partial results and nil error, got %v", err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run did not set Interrupted")
	}
	if res.Lookups >= full.Lookups {
		t.Fatalf("partial run counted %d lookups, want < %d", res.Lookups, full.Lookups)
	}

	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	e2, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run(done)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Interrupted {
		t.Fatal("pre-cancelled run did not set Interrupted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestZeroLookupAccessors(t *testing.T) {
	var res Results
	if res.Satisfaction() != 0 || res.MessagesPerLookup() != 0 || res.AvgHops() != 0 {
		t.Fatal("zero-lookup accessors must return 0")
	}
}

func TestRingDistAndCandidates(t *testing.T) {
	p := DefaultParams()
	p.NetworkSize = 16
	p.DeadFraction = 0
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.ringDist(3, 3); d != 0 {
		t.Errorf("ringDist(3,3) = %d", d)
	}
	if d := e.ringDist(14, 2); d != 4 {
		t.Errorf("ringDist(14,2) = %d, want 4", d)
	}
	// Best finger from distance 11 is the step-8 finger.
	q := &lookup{current: 0, owner: 11}
	if c := e.nextCandidate(q); c != 8 {
		t.Errorf("best finger = %d, want 8", c)
	}
	// After drops the walk goes linear and gives up past the owner.
	q.skip = 2
	if c := e.nextCandidate(q); c != 2 {
		t.Errorf("fallback candidate = %d, want 2", c)
	}
	q.skip = 12
	if c := e.nextCandidate(q); c != -1 {
		t.Errorf("exhausted walk = %d, want -1", c)
	}
}
