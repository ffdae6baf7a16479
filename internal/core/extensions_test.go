package core

import (
	"context"
	"testing"

	"repro/internal/policy"
)

func TestExtensionValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"adaptive window", func(p *Params) { p.AdaptiveParallel = true; p.AdaptiveParallelWindow = 0 }},
		{"adaptive cap", func(p *Params) { p.AdaptiveParallel = true; p.MaxParallelProbes = 0 }},
		{"selfish percent", func(p *Params) { p.PercentSelfishPeers = -1 }},
		{"selfish plus bad", func(p *Params) { p.PercentSelfishPeers = 60; p.PercentBadPeers = 60 }},
		{"selfish fanout", func(p *Params) { p.PercentSelfishPeers = 10; p.SelfishParallelProbes = 0 }},
		{"poison threshold", func(p *Params) { p.PoisonDetection = true; p.PoisonThreshold = 0 }},
		{"poison samples", func(p *Params) { p.PoisonDetection = true; p.PoisonMinSamples = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if _, err := New(p); err == nil {
				t.Fatal("invalid extension params accepted")
			}
		})
	}
}

func TestExtensionsOffLeaveBaselineIdentical(t *testing.T) {
	// Enabling-then-disabling flags must not perturb anything: a run
	// with the extension fields at their defaults must equal a run of
	// the plain quickParams.
	base := quickParams()
	a := run(t, base)
	withDefaults := base
	withDefaults.AdaptiveParallelWindow = 99 // ignored while flag is off
	withDefaults.SelfishParallelProbes = 7   // ignored at 0%
	b := run(t, withDefaults)
	if a.ProbesTotal != b.ProbesTotal || a.Queries != b.Queries {
		t.Fatal("inert extension fields changed the simulation")
	}
}

func TestAdaptiveParallelImprovesResponseTime(t *testing.T) {
	base := quickParams()
	base.Seed = 21

	adaptive := base
	adaptive.AdaptiveParallel = true
	adaptive.AdaptiveParallelWindow = 2
	adaptive.MaxParallelProbes = 32

	plain := run(t, base)
	fast := run(t, adaptive)
	if fast.AvgResponseTime() >= plain.AvgResponseTime() {
		t.Fatalf("adaptive parallelism did not cut response time: %.2fs vs %.2fs",
			fast.AvgResponseTime(), plain.AvgResponseTime())
	}
	// Satisfaction must not degrade materially.
	if fast.UnsatisfactionWithAborted() > plain.UnsatisfactionWithAborted()+0.05 {
		t.Fatalf("adaptive parallelism hurt satisfaction: %.3f vs %.3f",
			fast.UnsatisfactionWithAborted(), plain.UnsatisfactionWithAborted())
	}
}

func TestSelfishPeersInflateLoad(t *testing.T) {
	base := quickParams()
	base.MaxProbesPerSecond = 20
	base.QueryRate = 0.03
	base.Seed = 55

	// The blast must exceed the serial protocol's expected per-query
	// cost (~70 probes here), otherwise over-probing never happens.
	selfish := base
	selfish.PercentSelfishPeers = 20
	selfish.SelfishParallelProbes = 500

	honest := run(t, base)
	greedy := run(t, selfish)
	if greedy.TotalLoad() <= honest.TotalLoad() {
		t.Fatalf("selfish peers did not inflate load: %d vs %d",
			greedy.TotalLoad(), honest.TotalLoad())
	}

	// Probe payments restore protocol-following behavior.
	paid := selfish
	paid.ProbePayments = true
	disciplined := run(t, paid)
	if disciplined.TotalLoad() >= greedy.TotalLoad() {
		t.Fatalf("payments did not curb load: %d vs %d",
			disciplined.TotalLoad(), greedy.TotalLoad())
	}
}

func TestPoisonDetectionBlacklistsAttackers(t *testing.T) {
	base := quickParams()
	base.MeasureTime = 600
	base.QueryProbe = policy.SelMFS
	base.QueryPong = policy.SelMFS
	base.CacheReplacement = policy.EvLFS
	base.PercentBadPeers = 20
	base.BadPong = BadPongDead
	base.Seed = 77

	undefended := run(t, base)

	defended := base
	defended.PoisonDetection = true
	defended.PoisonThreshold = 0.8
	defended.PoisonMinSamples = 8
	guarded := run(t, defended)

	if guarded.BlacklistEvents == 0 {
		t.Fatal("no attackers blacklisted")
	}
	if undefended.BlacklistEvents != 0 {
		t.Fatal("blacklisting happened with detection disabled")
	}
	if guarded.DeadProbesPerQuery() >= undefended.DeadProbesPerQuery() {
		t.Fatalf("detection did not reduce dead probes: %.1f vs %.1f",
			guarded.DeadProbesPerQuery(), undefended.DeadProbesPerQuery())
	}
}

func TestSelfishFractionPreservedUnderChurn(t *testing.T) {
	p := quickParams()
	p.PercentSelfishPeers = 25
	p.LifespanMultiplier = 0.1
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	selfish := 0
	for p := 0; p < e.ps.len(); p++ {
		if e.ps.selfish[p] {
			selfish++
		}
	}
	got := float64(selfish) / float64(e.ps.len())
	if got < 0.24 || got > 0.26 {
		t.Fatalf("selfish fraction drifted to %v", got)
	}
}
