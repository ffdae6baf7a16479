package orchestrate

// The acceptance tests for distributed sweeps: a sweep run across
// workers over the wire must be byte-identical to the single-process
// path — results, rendered tables/CSV, and metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/experiments"
	"repro/internal/gossip"
	"repro/internal/obs"
)

// tinySweepSpec is a minimal-cost GUESS sweep with distinct points.
func tinySweepSpec(n int) experiments.Spec {
	params := make([]core.Params, n)
	for i := range params {
		p := core.DefaultParams()
		p.NetworkSize = 30
		p.CacheSize = 5 + i
		p.WarmupTime = 5
		p.MeasureTime = 20
		p.Seed = 7
		params[i] = p
	}
	return experiments.Spec{Family: experiments.FamilyGUESS, Core: params}
}

// TestDistributedSweepMatchesLocal is the core byte-identity check: a
// 2-worker sweep over memnet streams returns results identical to the
// in-process pool, for every protocol family, including replication
// expansion.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	gp := gossip.DefaultParams()
	gp.NetworkSize = 40
	gp.NumQueries = 8
	dp := dht.DefaultParams()
	dp.NetworkSize = 40
	dp.NumLookups = 8
	fp := experiments.DefaultFloodParams()
	fp.NetworkSize = 40
	fp.NumQueries = 8
	specs := []experiments.Spec{
		tinySweepSpec(4),
		{Family: experiments.FamilyFlood, Flood: []experiments.FloodParams{fp}},
		{Family: experiments.FamilyGossip, Gossip: []gossip.Params{gp}},
		{Family: experiments.FamilyDHT, DHT: []dht.Params{dp}},
	}

	pool, err := NewLocalPool(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for _, spec := range specs {
		opts := experiments.Options{Replications: 2}
		local, err := experiments.RunSpec(opts, spec)
		if err != nil {
			t.Fatalf("%s local: %v", spec.Family, err)
		}
		opts.Executor = pool
		dist, err := experiments.RunSpec(opts, spec)
		if err != nil {
			t.Fatalf("%s distributed: %v", spec.Family, err)
		}
		a, _ := json.Marshal(local)
		b, _ := json.Marshal(dist)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: distributed results differ from local:\n%s\n%s", spec.Family, a, b)
		}
	}
}

// TestDistributedExperimentByteIdentity runs a whole experiment —
// specs, execution, rendering — through a 2-worker pool and compares
// the rendered tables byte for byte against the single-process run.
// fig6 is used because it is deliberately unmemoized, so the executor
// really executes every point.
func TestDistributedExperimentByteIdentity(t *testing.T) {
	exp, err := experiments.Lookup("fig6")
	if err != nil {
		t.Fatal(err)
	}
	local, err := exp.Run(experiments.Options{Scale: experiments.Quick})
	if err != nil {
		t.Fatal(err)
	}

	pool, err := NewLocalPool(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	dist, err := exp.Run(experiments.Options{Scale: experiments.Quick, Executor: pool})
	if err != nil {
		t.Fatal(err)
	}

	var want, got bytes.Buffer
	if _, err := local.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("rendered output differs between local and 2-worker runs:\n--- local ---\n%s\n--- distributed ---\n%s", want.Bytes(), got.Bytes())
	}
	if s := pool.Stats(); s.Executed == 0 {
		t.Fatal("executor was never used — memoization swallowed the sweep")
	}
}

// sweepMetrics runs spec with a fresh metrics registry and returns its
// Prometheus text, failing if it recorded no queries (a comparison of
// empty texts would prove nothing).
func sweepMetrics(t *testing.T, opts experiments.Options, spec experiments.Spec) string {
	t.Helper()
	opts.Metrics = obs.NewRegistry()
	if _, err := experiments.RunSpec(opts, spec); err != nil {
		t.Fatal(err)
	}
	if opts.Metrics.Snapshot().Counters["guess_sim_queries_total"] == 0 {
		t.Fatal("the sweep recorded no queries")
	}
	var sb strings.Builder
	if err := opts.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDistributedMetricsMatchSerial checks that a sweep's metrics do not
// depend on how it ran: serial and 4-way in-process pools, and 1- and
// 4-worker distributed pools, must render the same Prometheus text,
// byte for byte.
func TestDistributedMetricsMatchSerial(t *testing.T) {
	spec := tinySweepSpec(5)
	serial := sweepMetrics(t, experiments.Options{Parallelism: 1}, spec)
	if got := sweepMetrics(t, experiments.Options{Parallelism: 4}, spec); got != serial {
		t.Fatalf("metrics differ between Parallelism 1 and 4:\n%s\n%s", serial, got)
	}
	for _, workers := range []int{1, 4} {
		pool, err := NewLocalPool(workers, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := sweepMetrics(t, experiments.Options{Executor: pool}, spec)
		pool.Close()
		if got != serial {
			t.Fatalf("metrics differ between the serial run and %d workers:\n%s\n%s", workers, serial, got)
		}
	}
}

// TestWarmCacheMetricsMatchCold reruns a sweep on a fresh pool sharing
// the first pool's result cache: every unit is a cache hit, and the
// metrics, recorded from the results whatever their source, are those
// of the cold run.
func TestWarmCacheMetricsMatchCold(t *testing.T) {
	spec := tinySweepSpec(3)
	cache := NewMemoryCache()
	run := func() (string, Stats) {
		pool, err := NewLocalPool(2, Config{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		return sweepMetrics(t, experiments.Options{Executor: pool}, spec), pool.Stats()
	}
	cold, coldStats := run()
	if coldStats.Executed != spec.NumPoints() {
		t.Fatalf("cold run executed %d units, want %d", coldStats.Executed, spec.NumPoints())
	}
	warm, warmStats := run()
	if warmStats.Executed != 0 || warmStats.CacheHits != spec.NumPoints() {
		t.Fatalf("warm run executed %d units with %d cache hits, want 0 and %d", warmStats.Executed, warmStats.CacheHits, spec.NumPoints())
	}
	if warm != cold {
		t.Fatalf("warm-cache metrics differ from the cold run:\n%s\n%s", cold, warm)
	}
}

// TestDashboardStreamsProgress checks the dashboard reflects a sweep's
// life: per-unit progress lines in append mode, ending at a complete
// count.
func TestDashboardStreamsProgress(t *testing.T) {
	var out strings.Builder
	dash := NewDashboard(&out, false)
	pool, err := NewLocalPool(2, Config{Dashboard: dash})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec := tinySweepSpec(3)
	if _, err := experiments.RunSpec(experiments.Options{Executor: pool}, spec); err != nil {
		t.Fatal(err)
	}
	dash.Finish()

	text := out.String()
	if !strings.Contains(text, "sweep: units 0/3") {
		t.Fatalf("missing start line in dashboard output:\n%s", text)
	}
	if !strings.Contains(text, "units 3/3 done") {
		t.Fatalf("missing completion line in dashboard output:\n%s", text)
	}
	if !strings.Contains(text, "workers 2") {
		t.Fatalf("missing worker count in dashboard output:\n%s", text)
	}
}

// TestDashboardRewriteMode checks terminal mode redraws in place and
// Finish terminates the line exactly once.
func TestDashboardRewriteMode(t *testing.T) {
	var out strings.Builder
	dash := NewDashboard(&out, true)
	dash.update(Stats{UnitsTotal: 2, Workers: 1})
	dash.update(Stats{UnitsTotal: 2, Workers: 1}) // unchanged: no redraw
	dash.update(Stats{UnitsTotal: 2, UnitsDone: 2, Workers: 1})
	dash.Finish()
	dash.Finish() // idempotent

	text := out.String()
	if got := strings.Count(text, "\r"); got != 2 {
		t.Fatalf("redraws = %d, want 2:\n%q", got, text)
	}
	if got := strings.Count(text, "\n"); got != 1 {
		t.Fatalf("newlines = %d, want 1:\n%q", got, text)
	}
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("Finish did not terminate the line: %q", text)
	}
}

// TestLocalPoolCancellation checks a canceled sweep context unwinds
// cleanly and the pool survives for the next run.
func TestLocalPoolCancellation(t *testing.T) {
	pool, err := NewLocalPool(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.RunPoints(ctx, []experiments.Point{tinySweepSpec(1).Point(0)}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The pool still works afterwards.
	res, err := pool.RunPoints(context.Background(), []experiments.Point{tinySweepSpec(1).Point(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
}
