package main

import (
	"context"
	"runtime"
	"time"

	guess "repro"
	"repro/internal/core"
)

// churnParams is the BenchmarkLargeRun shape: peers are born, die and
// ping far more often than they query, and every tenth simulated
// second the whole overlay is scanned for its largest component.
// Shards stays at the default, so the sharding verdict (ROADMAP item 2)
// moves this number.
func churnParams(seed uint64, quick bool) core.Params {
	p := guess.DefaultConfig()
	p.NetworkSize = 100_000
	p.CacheSize = 32
	p.WarmupTime = 20
	p.MeasureTime = 60
	p.QueryRate = 0.0005
	p.SampleInterval = 10
	p.SampleConnectivity = true
	p.Seed = seed
	if quick {
		p.NetworkSize = 2000
		p.WarmupTime, p.MeasureTime = 5, 15
		p.SampleInterval = 5
		p.LifespanMultiplier = 0.05 // or twenty simulated seconds see no death
	}
	return p
}

// runChurn runs the large churning simulation on consecutive seeds.
func runChurn(ctx context.Context, o runOpts, tr *tracer, r *runResult) error {
	setup, err := medianSetup(5, func() error {
		_, err := core.New(churnParams(o.seed, o.quick))
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	// The set-up engines are garbage now; without this the first run's
	// peak would include however many of them the collector had left.
	runtime.GC()

	var runS []float64
	var simSeconds float64
	var events int64
	var mallocs, allocBytes uint64
	// Three, so that the median run is a run and one stall cannot move it.
	const minRuns = 3
	_, runs, err := measuredPasses(r, o.seconds, minRuns, func(i int) error {
		p := churnParams(o.seed+uint64(i), o.quick)
		req := int64(i + 1)
		var counter eventCounter
		var before, after runtime.MemStats
		if o.trace {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		var res *core.Results
		var err error
		if o.trace {
			s := tr.start("core.New", 0, req)
			var engine *core.Engine
			engine, err = core.New(p)
			s.end()
			if err != nil {
				return err
			}
			engine.SetObserver(&counter)
			s = tr.start("core.Run", 0, req)
			res, err = engine.Run(ctx)
			s.end()
			if err != nil {
				return err
			}
		} else {
			res, err = guess.Run(ctx, p)
			if err != nil {
				return err
			}
		}
		runS = append(runS, time.Since(start).Seconds())
		simSeconds += p.WarmupTime + p.MeasureTime
		if o.trace {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
			events += counter.n.Load()
		}
		checkCore(r, "churn", res)
		r.check(res.Deaths > 0 && res.Births > 0, "churn: no churn (births %d, deaths %d)", res.Births, res.Deaths)
		r.check(res.ConnectivityRuns > 0 && res.FinalLargestWCC > 0 && res.FinalLargestWCC <= p.NetworkSize,
			"churn: connectivity not sampled (runs %d, final WCC %d)", res.ConnectivityRuns, res.FinalLargestWCC)
		if err := r.digestJSON(res); err != nil {
			return err
		}
		r.observeHeap()
		runtime.KeepAlive(res)
		return nil
	})
	if err != nil {
		return err
	}
	r.Samples["runs"] = runs

	rate := simSeconds / float64(runs) / median(runS)
	r.set("ops_per_s", rate)
	r.set("op_p50_us", median(runS)*1e6)
	r.set("trace.ops_per_s", rate)
	if o.trace {
		setCoreLayer(r, tr, events, runs, mallocs, allocBytes)
	}
	return nil
}
