package core

// The hot-path optimizations (pooled queries, block-bitmap seen
// sets, selection scratch, recycled link caches and libraries, buffered
// traces) must not change a single simulated outcome. These tests run
// the engine with its free lists in use against the same engine with
// nothing ever donated to them (noReuse: every birth and query
// allocates fresh, as the pre-optimization engine did) and demand
// byte-identical Results and traces. The selection scratch has its own
// reference in internal/policy (TestScratchMatchesReference,
// TestSampleIndicesMatchesReference).

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
)

// reuseTestConfigs covers every optimized code path: random and scored
// pong selection, colluding/dead/genuine poisoning, backoff and probe
// refusal, connectivity sampling, the adaptive extensions, burst
// chaining through the query pool, and heavy churn recycling caches
// and libraries.
func reuseTestConfigs() map[string]Params {
	cfgs := map[string]Params{}
	base := quickParams()
	base.MeasureTime = 200 // keep the battery fast; coverage over duration

	cfgs["default"] = base

	p := base
	p.QueryProbe, p.QueryPong = policy.SelMFS, policy.SelMFS
	p.PingProbe, p.PingPong = policy.SelMRU, policy.SelLRU
	p.CacheReplacement = policy.EvLFS
	cfgs["scored"] = p

	p = base
	p.QueryProbe, p.QueryPong = policy.SelMR, policy.SelMRStar
	p.CacheReplacement = policy.EvLRStar
	p.ResetNumResults = true
	cfgs["mrstar"] = p

	p = base
	p.PercentBadPeers = 25
	p.BadPong = BadPongBad
	p.QueryProbe = policy.SelMR
	cfgs["collude"] = p

	p = base
	p.PercentBadPeers = 25
	p.BadPong = BadPongGood
	p.PoisonDetection = true
	cfgs["poison-detect"] = p

	p = base
	p.SampleConnectivity = true
	cfgs["connectivity"] = p

	p = base
	p.MaxProbesPerSecond = 3
	p.DoBackoff = true
	p.AdaptiveParallel = true
	p.AdaptivePing = true
	p.PercentSelfishPeers = 10
	cfgs["stressed"] = p

	p = base
	p.CacheSize = 8
	p.PongSize = 11 // pong larger than cache: PickN clamps
	cfgs["clamped-pong"] = p

	return cfgs
}

func runTraced(t *testing.T, p Params, noReuse bool) (string, string) {
	t.Helper()
	var trace strings.Builder
	p.Trace = &trace
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.noReuse = noReuse
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return marshalResults(t, res), trace.String()
}

// TestReusePathsMatchReference is the PR's central determinism
// guarantee: with pooling on and off, same Params must yield identical
// Results and byte-identical CSV traces.
func TestReusePathsMatchReference(t *testing.T) {
	//lint:maporder-ok subtests are independent; execution order does not affect any result
	for name, p := range reuseTestConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				p.Seed = seed * 31
				refRes, refTrace := runTraced(t, p, true)
				gotRes, gotTrace := runTraced(t, p, false)
				if gotRes != refRes {
					t.Fatalf("seed %d: pooled Results diverged from reference:\n%s\n%s",
						p.Seed, gotRes, refRes)
				}
				if gotTrace != refTrace {
					l1, l2 := strings.Split(refTrace, "\n"), strings.Split(gotTrace, "\n")
					for i := 0; i < len(l1) && i < len(l2); i++ {
						if l1[i] != l2[i] {
							t.Fatalf("seed %d: trace diverged at line %d:\nref: %q\ngot: %q",
								p.Seed, i, l1[i], l2[i])
						}
					}
					t.Fatalf("seed %d: trace lengths diverged: %d vs %d lines", p.Seed, len(l1), len(l2))
				}
				if refTrace == "" {
					t.Fatal("empty trace; comparison is vacuous")
				}
			}
		})
	}
}

// TestAppendTraceRowMatchesFmt pins the buffered trace row to the
// fmt format string it replaced.
func TestAppendTraceRowMatchesFmt(t *testing.T) {
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		now                    float64
		births, deaths, q, sat int
		probes                 int64
		avgHeld, avgLive       float64
	}{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{100, 1, 2, 3, 4, 5, 6.125, 7.005},
		{4503.5, 120, 119, 88123, 87999, 912345678, 99.999, 0.004},
		{1e9, 1 << 30, 1, 1, 1, 1 << 40, 123456.789, 0.5},
	}
	for _, c := range cases {
		e.now = c.now
		e.res.Births, e.res.Deaths = c.births, c.deaths
		e.res.Queries, e.res.Satisfied = c.q, c.sat
		e.res.ProbesTotal = c.probes
		want := fmt.Sprintf("%.0f,%d,%d,%d,%d,%d,%.2f,%.2f\n",
			c.now, c.births, c.deaths, c.q, c.sat, c.probes, c.avgHeld, c.avgLive)
		got := string(e.appendTraceRow(nil, c.avgHeld, c.avgLive))
		if got != want {
			t.Fatalf("trace row mismatch:\ngot  %q\nwant %q", got, want)
		}
	}
}
