package guess_test

// One benchmark per table and figure of the paper's evaluation
// section. Each benchmark regenerates the artifact end to end at Quick
// scale (small networks, short windows) so `go test -bench=.` doubles
// as a smoke test of the whole reproduction pipeline; use
// cmd/guess-experiments -scale full for paper-scale numbers.

import (
	"context"
	"runtime"
	"testing"

	guess "repro"
)

// benchExperiment regenerates one paper artifact per iteration and
// reports a headline metric from its first table. The seed is fixed:
// experiments memoize shared sweeps per process, so a fixed seed lets
// the timing loop's extra iterations hit the memo instead of redoing
// minutes of simulation per iteration (the first iteration always does
// the real work).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := guess.RunExperiment(id, guess.ExperimentOptions{
			Scale: guess.ScaleQuick,
			Seed:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 || res.Tables[0].NumRows() == 0 {
			b.Fatalf("%s produced no data", id)
		}
		b.ReportMetric(float64(res.Tables[0].NumRows()), "rows")
	}
}

func BenchmarkTable3LiveEntries(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFig3ProbesVsCacheSize(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4UnsatVsCacheSize(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5DeadGoodProbes(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6ConnectivityVsPing(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7ConnectivityVsSize(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8FlexibleExtent(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9QueryProbePolicies(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10QueryPongPolicies(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11CacheReplPolicies(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12UnsatByQueryPong(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13LoadDistribution(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14CapacityLimits(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15UnsatVsCapacity(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16PoisonDeadProbes(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17PoisonDeadUnsat(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkFig18PoisonDeadEntries(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19PoisonBadProbes(b *testing.B)   { benchExperiment(b, "fig19") }
func BenchmarkFig20PoisonBadUnsat(b *testing.B)    { benchExperiment(b, "fig20") }
func BenchmarkFig21PoisonBadEntries(b *testing.B)  { benchExperiment(b, "fig21") }

// Extension and ablation studies beyond the paper's artifacts.
func BenchmarkExtAdaptiveParallel(b *testing.B) { benchExperiment(b, "ext-adaptive") }
func BenchmarkExtSelfishPayments(b *testing.B)  { benchExperiment(b, "ext-selfish") }
func BenchmarkExtPoisonDetection(b *testing.B)  { benchExperiment(b, "ext-detection") }
func BenchmarkAblPongSize(b *testing.B)         { benchExperiment(b, "abl-pongsize") }
func BenchmarkAblIntroProb(b *testing.B)        { benchExperiment(b, "abl-introprob") }

// BenchmarkLargeRun measures a 100k-peer churning simulation with
// connectivity sampling — the scaling path toward the million-peer
// target (see README "Scaling"). Half of it is the 100k births of the
// time-zero population and the eight whole-overlay samples, the rest
// pings. make bench-check gates its allocs/op and B/op; live-B/peer is
// the heap still reachable after the last run, per peer: the footprint
// that a larger population multiplies.
func BenchmarkLargeRun(b *testing.B) {
	const peers = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := guess.DefaultConfig()
		cfg.NetworkSize = peers
		cfg.CacheSize = 32
		cfg.WarmupTime = 20
		cfg.MeasureTime = 60
		cfg.QueryRate = 0.0005
		cfg.SampleInterval = 10
		cfg.SampleConnectivity = true
		cfg.Seed = uint64(i + 1)
		res, err := guess.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deaths == 0 {
			b.Fatal("no churn")
		}
		if i == b.N-1 {
			// One forced collection, outside the timer, with the engine
			// still reachable: a run returns a pointer into its engine.
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(res)
			b.ReportMetric(float64(ms.HeapAlloc)/peers, "live-B/peer")
		}
	}
}

// BenchmarkSingleRun measures one default-configuration simulation —
// the unit of work every experiment sweep is built from.
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := guess.DefaultConfig()
		cfg.NetworkSize = 400
		cfg.WarmupTime = 100
		cfg.MeasureTime = 300
		cfg.Seed = uint64(i + 1)
		res, err := guess.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Queries == 0 {
			b.Fatal("no queries")
		}
	}
}
