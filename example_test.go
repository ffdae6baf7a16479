package guess_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	guess "repro"
)

// ExampleRun shows a minimal simulation: the paper's defaults on a
// small network.
func ExampleRun() {
	cfg := guess.DefaultConfig()
	cfg.NetworkSize = 200
	cfg.WarmupTime = 100
	cfg.MeasureTime = 300
	res, err := guess.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d queries at %.0f probes each\n",
		res.Queries, res.ProbesPerQuery())
	// Output: completed 453 queries at 50 probes each
}

// ExampleRun_policies compares two policy configurations on identical
// seeds — the experiment pattern used throughout the reproduction.
func ExampleRun_policies() {
	base := guess.DefaultConfig()
	base.NetworkSize = 200
	base.WarmupTime = 100
	base.MeasureTime = 300

	tuned := base
	tuned.QueryPong = guess.MFS
	tuned.CacheReplacement = guess.EvictLFS

	baseRes, err := guess.Run(context.Background(), base)
	if err != nil {
		log.Fatal(err)
	}
	tunedRes, err := guess.Run(context.Background(), tuned)
	if err != nil {
		log.Fatal(err)
	}
	if tunedRes.ProbesPerQuery() < baseRes.ProbesPerQuery() {
		fmt.Println("MFS/LFS is cheaper than Random")
	}
	// Output: MFS/LFS is cheaper than Random
}

// ExampleRunExperiment regenerates one of the paper's figures.
func ExampleRunExperiment() {
	res, err := guess.RunExperiment("fig12", guess.ExperimentOptions{
		Scale: guess.ScaleQuick,
		Seed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Title)
	// Output: Figure 12: unsatisfied queries by QueryPong policy
}

// ExampleWithObserver watches a run from the outside: an observer folds
// the trace stream into a tally of finished queries, and a metrics
// registry collects the run's counters for Prometheus-text exposition.
// A single Run delivers events sequentially on the simulation loop, so
// the observer needs no locks. The observer also sees the warm-up's
// queries; Results and the metrics count only the measured window.
func ExampleWithObserver() {
	cfg := guess.DefaultConfig()
	cfg.NetworkSize = 200
	cfg.WarmupTime = 100
	cfg.MeasureTime = 300

	var done, satisfied int
	tally := guess.ObserverFunc(func(ev guess.TraceEvent) {
		if ev.Kind != guess.EvQueryDone {
			return
		}
		done++
		if ev.Outcome == guess.OutcomeSatisfied {
			satisfied++
		}
	})
	reg := guess.NewMetricsRegistry()
	res, err := guess.Run(context.Background(), cfg,
		guess.WithObserver(tally), guess.WithMetrics(reg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observed %d finished queries, %d satisfied\n", done, satisfied)
	fmt.Printf("counted %d queries\n", res.Queries)

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "guess_sim_queries_total ") {
			fmt.Println(line)
		}
	}
	// Output:
	// observed 615 finished queries, 534 satisfied
	// counted 453 queries
	// guess_sim_queries_total 453
}
