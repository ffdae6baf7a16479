package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	guess "repro"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/experiments"
	"repro/internal/gnutella"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// familyParams are the four engines' configurations for one pass.
type familyParams struct {
	guess  core.Params
	gossip gossip.Params
	flood  experiments.FloodParams
	dht    dht.Params
}

// familiesParams sizes the four engines. GUESS runs the paper's default
// network and rates over a 250+500 simulated-second window; the other
// three run at N=2000 with query counts that cost about as much, so no
// engine's share of a pass is lost in the others'. One run of each is
// under a second of host time: the box this was written on is slowed
// for a second or so at a time by its neighbours, which a long run
// absorbs whole and the median of several short ones mostly escapes
// (measured: 20 % against 8 % spread over the same noisy ten minutes).
func familiesParams(seed uint64, quick bool) familyParams {
	var p familyParams
	p.guess = guess.DefaultConfig()
	p.gossip = gossip.DefaultParams()
	p.flood = experiments.DefaultFloodParams()
	p.dht = dht.DefaultParams()

	n, queries, lookups := 2000, 4000, 200_000
	p.guess.WarmupTime, p.guess.MeasureTime = 250, 500
	if quick {
		n, queries, lookups = 100, 200, 500
		p.guess.NetworkSize = 100
		p.guess.WarmupTime, p.guess.MeasureTime = 20, 60
	}
	p.guess.Seed = seed
	p.gossip.NetworkSize, p.gossip.NumQueries, p.gossip.Seed = n, queries, seed
	p.flood.NetworkSize, p.flood.NumQueries, p.flood.Seed = n, queries, seed
	p.dht.NetworkSize, p.dht.NumLookups, p.dht.Seed = n, lookups, seed
	return p
}

// buildFamilies constructs everything the four engines need before
// their first event: the set-up cost of the workload.
func buildFamilies(p familyParams) error {
	if _, err := core.New(p.guess); err != nil {
		return err
	}
	if _, err := gossip.New(p.gossip); err != nil {
		return err
	}
	if _, err := dht.New(p.dht); err != nil {
		return err
	}
	u, err := content.New(p.flood.Content)
	if err != nil {
		return err
	}
	rng := simrng.New(p.flood.Seed)
	if _, err := gnutella.NewRandom(rng, p.flood.NetworkSize, p.flood.AvgDegree); err != nil {
		return err
	}
	_, err = gnutella.NewPopulation(u, p.flood.NetworkSize, rng)
	return err
}

// eventCounter is the counting observer of the traced runs.
type eventCounter struct{ n atomic.Int64 }

func (c *eventCounter) Observe(obs.Event) { c.n.Add(1) }

// checkCore applies the conservation laws to one GUESS run.
func checkCore(r *runResult, what string, res *core.Results) {
	r.check(res.ProbesTotal == res.GoodProbes+res.DeadProbes+res.RefusedProbes,
		"%s: ProbesTotal %d != good %d + dead %d + refused %d", what, res.ProbesTotal, res.GoodProbes, res.DeadProbes, res.RefusedProbes)
	r.check(res.Satisfied+res.Unsatisfied == res.Queries,
		"%s: satisfied %d + unsatisfied %d != queries %d", what, res.Satisfied, res.Unsatisfied, res.Queries)
	u := res.Unsatisfaction()
	r.check(u >= 0 && u <= 1, "%s: unsatisfaction %v outside [0,1]", what, u)
	r.check(!res.Interrupted, "%s: run was interrupted", what)
}

func checkGossip(r *runResult, res *gossip.Results) {
	r.check(res.Satisfied+res.Unsatisfied == res.Queries && res.Queries > 0,
		"gossip: satisfied %d + unsatisfied %d != queries %d", res.Satisfied, res.Unsatisfied, res.Queries)
	r.check(res.MessagesSent == res.MessagesDelivered+res.MessagesDropped,
		"gossip: sent %d != delivered %d + dropped %d", res.MessagesSent, res.MessagesDelivered, res.MessagesDropped)
	s := res.Satisfaction()
	r.check(s >= 0 && s <= 1, "gossip: satisfaction %v outside [0,1]", s)
}

func checkFlood(r *runResult, res *experiments.FloodResults) {
	r.check(res.Satisfied+res.Unsatisfied == res.Queries && res.Queries > 0,
		"flood: satisfied %d + unsatisfied %d != queries %d", res.Satisfied, res.Unsatisfied, res.Queries)
	s := res.Satisfaction()
	r.check(s >= 0 && s <= 1, "flood: satisfaction %v outside [0,1]", s)
}

func checkDHT(r *runResult, res *dht.Results) {
	r.check(res.Satisfied+res.Unsatisfied == res.Lookups && res.Lookups > 0,
		"dht: satisfied %d + unsatisfied %d != lookups %d", res.Satisfied, res.Unsatisfied, res.Lookups)
	r.check(res.MessagesSent == res.MessagesDelivered+res.MessagesDropped,
		"dht: sent %d != delivered %d + dropped %d", res.MessagesSent, res.MessagesDelivered, res.MessagesDropped)
	s := res.Satisfaction()
	r.check(s >= 0 && s <= 1, "dht: satisfaction %v outside [0,1]", s)
}

// runFamilies runs each engine once per pass, serially, through its
// public entry point. Every pass repeats the same inputs, so an
// engine's times are readings of one quantity and their median is the
// run without the box's interruptions.
func runFamilies(ctx context.Context, o runOpts, tr *tracer, r *runResult) error {
	setup, err := medianSetup(5, func() error { return buildFamilies(familiesParams(o.seed, o.quick)) }, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	var guessS, gossipS, floodS, dhtS, guessUSPerProbe []float64
	var events, guessProbes, gossipMsgs, floodMsgs, dhtHops int64
	var mallocs, allocBytes uint64
	_, passes, err := measuredPasses(r, o.seconds, 3, func(i int) error {
		p := familiesParams(o.seed, o.quick)
		req := int64(i + 1)
		pass := tr.start("families.pass", 0, req)
		defer pass.end()

		// GUESS. The traced run splits guess.Run into its two halves
		// so construction and the event loop get their own spans.
		var counter eventCounter
		var before, after runtime.MemStats
		start := time.Now()
		var gres *core.Results
		var err error
		if o.trace {
			runtime.ReadMemStats(&before)
			start = time.Now()
			s := tr.start("core.New", pass.id(), req)
			var engine *core.Engine
			engine, err = core.New(p.guess)
			s.end()
			if err != nil {
				return err
			}
			engine.SetObserver(&counter)
			s = tr.start("core.Run", pass.id(), req)
			gres, err = engine.Run(ctx)
			s.end()
			if err != nil {
				return err
			}
		} else {
			gres, err = guess.Run(ctx, p.guess)
			if err != nil {
				return err
			}
		}
		guessS = append(guessS, time.Since(start).Seconds())
		if o.trace {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
			events += counter.n.Load()
		}
		checkCore(r, "guess", gres)
		r.check(gres.Queries > 0 && gres.ProbesTotal > 0, "guess: no queries completed")
		guessProbes += gres.ProbesTotal
		guessUSPerProbe = append(guessUSPerProbe, guessS[len(guessS)-1]*1e6/float64(max(gres.ProbesTotal, 1)))
		if err := r.digestJSON(gres); err != nil {
			return err
		}
		r.observeHeap()
		runtime.KeepAlive(gres)

		start = time.Now()
		s := tr.start("gossip.Run", pass.id(), req)
		gsres, err := gossip.Run(ctx, p.gossip)
		s.end()
		if err != nil {
			return err
		}
		gossipS = append(gossipS, time.Since(start).Seconds())
		gossipMsgs += gsres.MessagesSent
		checkGossip(r, gsres)
		if err := r.digestJSON(gsres); err != nil {
			return err
		}
		r.observeHeap()
		runtime.KeepAlive(gsres)

		start = time.Now()
		s = tr.start("experiments.RunPoint.flood", pass.id(), req)
		fres, err := experiments.RunPoint(ctx, experiments.Point{Family: experiments.FamilyFlood, Flood: &p.flood}, experiments.Observation{})
		s.end()
		if err != nil {
			return err
		}
		floodS = append(floodS, time.Since(start).Seconds())
		floodMsgs += fres.Flood.Messages
		checkFlood(r, fres.Flood)
		if err := r.digestJSON(fres.Flood); err != nil {
			return err
		}
		r.observeHeap()
		runtime.KeepAlive(fres)

		start = time.Now()
		s = tr.start("dht.Run", pass.id(), req)
		dres, err := dht.Run(ctx, p.dht)
		s.end()
		if err != nil {
			return err
		}
		dhtS = append(dhtS, time.Since(start).Seconds())
		dhtHops += dres.HopsTotal
		checkDHT(r, dres)
		if err := r.digestJSON(dres); err != nil {
			return err
		}
		r.observeHeap()
		runtime.KeepAlive(dres)
		return nil
	})
	if err != nil {
		return err
	}
	r.Samples["engine_runs"] = 4 * passes

	rate := 4 / (median(guessS) + median(gossipS) + median(floodS) + median(dhtS))
	r.set("ops_per_s", rate)
	// A run's wall time follows the seed: the libraries are heavy-tailed,
	// and a few large ones change how many probes the queries need (by
	// +-8 % over ten seeds). The cost of a probe does not.
	r.set("op_p50_us", median(guessUSPerProbe))

	r.set("trace.ops_per_s", rate)
	r.set("guess.run_s", median(guessS))
	r.set("gossip.run_s", median(gossipS))
	r.set("gnutella.flood_run_s", median(floodS))
	r.set("dht.run_s", median(dhtS))
	n := float64(passes)
	r.set("gossip.messages", float64(gossipMsgs)/n)
	r.set("gossip.run_ns_per_msg", sum(gossipS)*1e9/float64(gossipMsgs))
	r.set("gnutella.messages", float64(floodMsgs)/n)
	r.set("gnutella.flood_ns_per_msg", sum(floodS)*1e9/float64(floodMsgs))
	r.set("dht.hops", float64(dhtHops)/n)
	r.set("dht.run_ns_per_hop", sum(dhtS)*1e9/float64(dhtHops))
	if o.trace {
		setCoreLayer(r, tr, events, passes, mallocs, allocBytes)
	}
	return nil
}

// setCoreLayer derives the internal/core per-layer metrics from the
// spans around its three entry points and the traced runs' counters.
func setCoreLayer(r *runResult, tr *tracer, events int64, runs int, mallocs, allocBytes uint64) {
	spans, _ := tr.snapshot()
	agg := selfTimes(spans)
	r.set("core.new_ms", agg["core.New"].meanMS())
	r.set("core.renew_ms", agg["core.Renew"].meanMS())
	r.set("core.events", float64(events)/float64(runs))
	if events > 0 {
		r.set("core.run_ns_per_event", float64(agg["core.Run"].TotalNS)/float64(events))
	}
	r.set("core.allocs_per_run", float64(mallocs)/float64(runs))
	r.set("core.alloc_mb_per_run", float64(allocBytes)/float64(runs)/(1<<20))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
