package core

// Observability must be read-only: attaching an observer to a seeded
// run may not change a single byte of its Results or its CSV trace, and
// the metrics Results.Record fills must agree with those Results.
// Golden files under testdata/ pin the
// Prometheus exposition and the JSONL query trace of one fixed-seed
// run; regenerate them with `go test ./internal/core -run Golden -update`
// after an intentional schema change.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// runObserved runs p with a CSV trace and observer o attached,
// returning the results and the CSV trace.
func runObserved(t *testing.T, p Params, o obs.Observer) (*Results, string) {
	t.Helper()
	var trace strings.Builder
	p.Trace = &trace
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(o)
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, trace.String()
}

func TestObservabilityDoesNotPerturbRun(t *testing.T) {
	p := quickParams()

	bareRes, bareTrace := runWithTrace(t, p)

	var events int
	obsRes, obsTrace := runObserved(t, p, obs.ObserverFunc(func(obs.Event) { events++ }))

	if got, want := marshalResults(t, obsRes), marshalResults(t, bareRes); got != want {
		t.Fatalf("attaching an observer changed Results:\n%s\n%s", got, want)
	}
	if obsTrace != bareTrace {
		t.Fatal("attaching an observer changed the CSV trace")
	}
	if events == 0 {
		t.Fatal("observer saw no events")
	}

	// The metrics mirror Results exactly — a scrape and the returned
	// struct must never disagree.
	reg := obs.NewRegistry()
	bareRes.Record(reg)
	s := reg.Snapshot()
	mirror := []struct {
		metric string
		want   uint64
	}{
		{"guess_sim_queries_total", uint64(bareRes.Queries)},
		{"guess_sim_queries_satisfied_total", uint64(bareRes.Satisfied)},
		{"guess_sim_queries_unsatisfied_total", uint64(bareRes.Unsatisfied)},
		{"guess_sim_queries_aborted_total", uint64(bareRes.Aborted)},
		{"guess_sim_probes_total", uint64(bareRes.ProbesTotal)},
		{"guess_sim_probes_good_total", uint64(bareRes.GoodProbes)},
		{"guess_sim_probes_dead_total", uint64(bareRes.DeadProbes)},
		{"guess_sim_probes_refused_total", uint64(bareRes.RefusedProbes)},
		{"guess_sim_pings_total", uint64(bareRes.Pings)},
		{"guess_sim_pings_dead_total", uint64(bareRes.DeadPings)},
		{"guess_sim_births_total", uint64(bareRes.Births)},
		{"guess_sim_deaths_total", uint64(bareRes.Deaths)},
		{"guess_sim_blacklists_total", uint64(bareRes.BlacklistEvents)},
	}
	for _, m := range mirror {
		if got := s.Counters[m.metric]; got != m.want {
			t.Errorf("%s = %d, Results say %d", m.metric, got, m.want)
		}
	}
	if got, want := s.Gauges["guess_sim_cache_entries_avg"], bareRes.AvgCacheEntries; got != want {
		t.Errorf("guess_sim_cache_entries_avg = %v, Results say %v", got, want)
	}
	if got, want := s.Gauges["guess_sim_cache_live_entries_avg"], bareRes.AvgLiveEntries; got != want {
		t.Errorf("guess_sim_cache_live_entries_avg = %v, Results say %v", got, want)
	}
	if bareRes.Queries == 0 {
		t.Fatal("fixture produced no queries; the mirror check is vacuous")
	}
}

// goldenParams is a deliberately tiny fixed-seed run so the JSONL
// query trace stays reviewable in testdata/.
func goldenParams() Params {
	p := DefaultParams()
	p.NetworkSize = 50
	p.CacheSize = 10
	p.WarmupTime = 20
	p.MeasureTime = 30
	p.QueryRate = 0.004
	p.Seed = 42
	return p
}

func TestGoldenObservabilityOutputs(t *testing.T) {
	var jsonl strings.Builder
	tw := obs.NewTraceWriter(&jsonl).Mask(obs.QueryEventMask)

	e, err := New(goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(tw)
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res.Record(reg)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}

	checkGolden(t, "golden_metrics.prom", prom.String())
	checkGolden(t, "golden_query_trace.jsonl", jsonl.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\ngot:  %q\nwant: %q\n(run with -update after intentional changes)",
					name, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s length changed: %d vs %d lines (run with -update after intentional changes)",
			name, len(gotLines), len(wantLines))
	}
}

func TestRunContextCancellation(t *testing.T) {
	full := run(t, quickParams())
	if full.Interrupted {
		t.Fatal("uncancelled run reported Interrupted")
	}

	// Cancel from inside the run, halfway through the measurement
	// window, via an observer watching the virtual clock.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) {
		if ev.Time > 300 {
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
	if res.Queries == 0 || res.Queries >= full.Queries {
		t.Fatalf("partial run counted %d queries, want in (0, %d)", res.Queries, full.Queries)
	}

	// A context cancelled before Run starts still returns cleanly.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	e2, err := New(quickParams())
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
