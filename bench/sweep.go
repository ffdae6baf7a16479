package main

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/orchestrate"
)

// sweepWorkers is the pool size: the reference box has two cores, and
// a fixed count keeps runs on bigger boxes comparable.
const sweepWorkers = 2

// sweepFigures are the experiments of one pass. fig3 sweeps the cache
// size from 5 to 200, across the link cache's 128-entry flat/map
// boundary; fig9 sweeps the probe policies; fig14 turns capacity
// limits (and so refusals) on. The smoke test regenerates fig7, the
// cheapest figure there is.
func sweepFigures(quick bool) []string {
	if quick {
		return []string{"fig7"}
	}
	return []string{"fig3", "fig9", "fig14"}
}

// spanExecutor is an executor whose batch spans hang under a span the
// caller chooses (the figure being regenerated).
type spanExecutor interface {
	experiments.Executor
	setParent(id int64)
}

// recordingExecutor passes batches through to the pool, with a span
// per batch, and keeps every point so a later pass can resubmit them.
type recordingExecutor struct {
	pool   *orchestrate.LocalPool
	tr     *tracer
	parent int64

	batches [][]experiments.Point
}

func (e *recordingExecutor) setParent(id int64) { e.parent = id }

func (e *recordingExecutor) RunPoints(ctx context.Context, pts []experiments.Point) ([]experiments.PointResult, error) {
	e.batches = append(e.batches, pts)
	s := e.tr.start("orchestrate.RunPoints", e.parent, 0)
	defer s.end()
	return e.pool.RunPoints(ctx, pts)
}

// directExecutor runs points on sweepWorkers goroutines in this
// process, calling the engines directly: the sweep without framing,
// dispatch or reassembly, with a span around every layer call. GUESS
// points chain engines through Renew the way the in-process sweep pool
// does.
type directExecutor struct {
	tr     *tracer
	parent int64
	events eventCounter

	mu      sync.Mutex
	pointNS int64
	points  int
}

func (e *directExecutor) setParent(id int64) { e.parent = id }

func (e *directExecutor) RunPoints(ctx context.Context, pts []experiments.Point) ([]experiments.PointResult, error) {
	batch := e.tr.start("direct.RunPoints", e.parent, 0)
	defer batch.end()
	out := make([]experiments.PointResult, len(pts))
	errs := make([]error, len(pts))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev *core.Engine
			for i := range work {
				start := time.Now()
				out[i], prev, errs[i] = e.runPoint(ctx, pts[i], prev, batch.id(), int64(i+1))
				e.mu.Lock()
				e.pointNS += int64(time.Since(start))
				e.points++
				e.mu.Unlock()
			}
		}()
	}
	for i := range pts {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *directExecutor) runPoint(ctx context.Context, pt experiments.Point, prev *core.Engine, parent, req int64) (experiments.PointResult, *core.Engine, error) {
	s := e.tr.start("experiments.RunPoint", parent, req)
	defer s.end()
	if pt.Family != experiments.FamilyGUESS {
		pr, err := experiments.RunPoint(ctx, pt, experiments.Observation{})
		return pr, prev, err
	}
	var engine *core.Engine
	var err error
	if prev != nil {
		c := e.tr.start("core.Renew", s.id(), req)
		engine, err = prev.Renew(*pt.Core)
		c.end()
	} else {
		c := e.tr.start("core.New", s.id(), req)
		engine, err = core.New(*pt.Core)
		c.end()
	}
	if err != nil {
		return experiments.PointResult{}, nil, err
	}
	engine.SetObserver(&e.events)
	c := e.tr.start("core.Run", s.id(), req)
	res, err := engine.Run(ctx)
	c.end()
	if err != nil {
		return experiments.PointResult{}, nil, err
	}
	return experiments.PointResult{Family: experiments.FamilyGUESS, Core: res}, engine, nil
}

// sweepPass regenerates every figure once through exec, checks and
// digests the rendered tables, and returns the number of points the
// specs declare. figS collects the host seconds each figure took.
func sweepPass(ctx context.Context, o runOpts, seed uint64, exec spanExecutor, tr *tracer, passName string, r *runResult, figS *[]float64) (int, error) {
	pass := tr.start(passName, 0, 0)
	defer pass.end()
	opts := experiments.Options{Scale: experiments.Quick, Seed: seed, Executor: exec, Context: ctx}
	units := 0
	for _, id := range sweepFigures(o.quick) {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return 0, err
		}
		for _, spec := range exp.Specs(opts) {
			units += spec.NumPoints()
		}
		start := time.Now()
		s := tr.start("experiments.Run."+id, pass.id(), 0)
		exec.setParent(s.id())
		res, err := exp.Run(opts)
		s.end()
		if err != nil {
			return 0, err
		}
		*figS = append(*figS, time.Since(start).Seconds())

		r.check(len(res.Tables) > 0, "%s: no tables", id)
		for _, t := range res.Tables {
			r.check(t.NumRows() > 0, "%s: table %q is empty", id, t.Title)
		}
		var text bytes.Buffer
		if _, err := res.WriteTo(&text); err != nil {
			return 0, err
		}
		if err := r.digestJSON(text.String()); err != nil {
			return 0, err
		}
	}
	return units, nil
}

// buildSweep is the sweep's set-up: a pool with its workers connected,
// and every figure expanded into keyed points.
func buildSweep(o runOpts) error {
	pool, err := orchestrate.NewLocalPool(sweepWorkers, orchestrate.Config{})
	if err != nil {
		return err
	}
	defer pool.Close()
	opts := experiments.Options{Scale: experiments.Quick, Seed: o.seed}
	for _, id := range sweepFigures(o.quick) {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		for _, spec := range exp.Specs(opts) {
			for i := 0; i < spec.NumPoints(); i++ {
				_ = spec.Point(i).Key()
			}
		}
	}
	return nil
}

// runSweep regenerates the figures through an orchestrate.LocalPool.
// Every pass uses its own seed: the process-wide sweep memo would
// otherwise answer the second pass without running anything.
func runSweep(ctx context.Context, o runOpts, tr *tracer, r *runResult) error {
	setup, err := medianSetup(5, func() error { return buildSweep(o) }, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	// The traced run gives the pool a result cache, so that the points
	// can be resubmitted afterwards and come back as hits.
	cfg := orchestrate.Config{}
	if o.trace {
		cfg.Cache = orchestrate.NewMemoryCache()
	}
	pool, err := orchestrate.NewLocalPool(sweepWorkers, cfg)
	if err != nil {
		return err
	}
	defer pool.Close()
	rec := &recordingExecutor{pool: pool, tr: tr}

	// Three passes, so that the median pass is a pass and a slow stretch
	// of the box costs one of them; the traced run makes one through the
	// pool, and the direct pass below is its second.
	seconds, minPasses := o.seconds, 3
	if o.trace || o.quick {
		seconds, minPasses = 0, 1
	}
	var figS, passRates []float64
	units := 0
	wall, passes, err := measuredPasses(r, seconds, minPasses, func(i int) error {
		start := time.Now()
		n, err := sweepPass(ctx, o, o.seed+uint64(i), rec, tr, "sweep.pass", r, &figS)
		passRates = append(passRates, float64(n)/time.Since(start).Seconds())
		units += n
		if i == 0 {
			// What one sweep leaves reachable: the pool, and the memo's
			// results. Later passes add to the memo, and how many fit in
			// the run depends on the box.
			r.observeHeap()
		}
		return err
	})
	if err != nil {
		return err
	}
	r.Samples["figures"] = len(figS)
	r.Samples["sweep_points"] = units

	st := pool.Stats()
	r.check(st.Executed == units && st.CacheHits == 0,
		"pool executed %d units (cache hits %d) of %d declared: a memo or cache hit passed for speed", st.Executed, st.CacheHits, units)
	rate := median(passRates)
	r.set("ops_per_s", rate)
	r.set("op_p50_us", median(figS)*1e6)
	r.set("trace.ops_per_s", rate)
	r.set("orchestrate.reassigned", float64(st.Reassigned))
	if !o.trace {
		return nil
	}

	// Resubmit every batch: all hits now, so wall / units is what the
	// coordinator spends per unit on lookup, bookkeeping and reassembly.
	start := time.Now()
	s := tr.start("orchestrate.RunPoints.cached", 0, 0)
	for _, batch := range rec.batches {
		if _, err := pool.RunPoints(ctx, batch); err != nil {
			return err
		}
	}
	s.end()
	r.set("orchestrate.dispatch_us_per_unit", time.Since(start).Seconds()*1e6/float64(units))
	r.check(pool.Stats().Executed == st.Executed, "the cached pass executed %d units", pool.Stats().Executed-st.Executed)

	// The same sweep on the same number of workers without the pool:
	// per-point spans, and the pool's overhead by comparison. It takes
	// a seed no pool pass used, so the sweep memo cannot answer.
	direct := &directExecutor{tr: tr}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var directFigS []float64
	r.digestOff = true
	defer func() { r.digestOff = false }()
	if _, err := sweepPass(ctx, o, o.seed+uint64(passes), direct, tr, "direct.pass", r, &directFigS); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	r.check(direct.points > 0, "the direct pass ran no points")
	poolNSPerPass := float64(wall.Nanoseconds()) / float64(passes)
	r.set("orchestrate.overhead_frac", 1-float64(direct.pointNS)/(sweepWorkers*poolNSPerPass))
	setCoreLayer(r, tr, direct.events.n.Load(), max(direct.points, 1), after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	return nil
}
