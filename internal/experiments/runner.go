package experiments

import (
	"context"
	"fmt"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gnutella"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// Observation carries the per-run observability attachments a Worker
// threads into its engine. Either field may be nil. Metrics applies to
// GUESS runs only (the other families expose their own metric sets,
// which sweeps do not currently attach). Flood points ignore both:
// runFlood is a query replay over a static overlay, with no engine to
// attach an Observer to.
type Observation struct {
	Observer obs.Observer
	Metrics  *obs.SimMetrics
}

// Worker executes sweep points of any family, one at a time: the
// point's family discriminator selects the engine, and the parameters
// are complete — no closure or figure ID resolves behind the call,
// which is what lets a distributed worker execute any Point it is
// handed. The zero value is ready to use; a Worker is not safe for
// concurrent use.
//
// A Worker that has finished a GUESS point chains the next one through
// core.Engine.Renew, so its arenas — peer arrays, link caches, event
// queue, scratch — are allocated once per Worker, not once per point.
// Recycling is draw-order-neutral (core's TestRenewMatchesFresh, and
// TestWorkerRenewMatchesFresh here), so a Worker's results are those of
// a fresh engine per point. It also keeps the last engine reachable:
// let a Worker go when its batch is done.
type Worker struct {
	prev *core.Engine // the last GUESS engine, run; nil before the first
}

// Run validates and executes one sweep point. It is deterministic
// (equal points give identical results) and honors ctx: cancellation
// mid-run returns ctx.Err() rather than a partial result, so partial
// runs can never enter a cache.
func (w *Worker) Run(ctx context.Context, pt Point, o Observation) (PointResult, error) {
	if err := pt.Validate(); err != nil {
		return PointResult{}, err
	}
	switch pt.Family {
	case FamilyGUESS:
		return w.runGUESS(ctx, *pt.Core, o)
	case FamilyFlood:
		return runFlood(ctx, *pt.Flood)
	case FamilyGossip:
		e, err := gossip.New(*pt.Gossip)
		if err != nil {
			return PointResult{}, err
		}
		e.SetObserver(o.Observer)
		res, err := e.Run(ctx)
		if err != nil {
			return PointResult{}, err
		}
		if res.Interrupted {
			return PointResult{}, ctx.Err()
		}
		return PointResult{Family: FamilyGossip, Gossip: res}, nil
	case FamilyDHT:
		e, err := dht.New(*pt.DHT)
		if err != nil {
			return PointResult{}, err
		}
		e.SetObserver(o.Observer)
		res, err := e.Run(ctx)
		if err != nil {
			return PointResult{}, err
		}
		if res.Interrupted {
			return PointResult{}, ctx.Err()
		}
		return PointResult{Family: FamilyDHT, DHT: res}, nil
	}
	// Validate admits only the four families above.
	return PointResult{}, fmt.Errorf("experiments: no engine for family %q", pt.Family)
}

// RunPoint is a fresh Worker's single run: every arena is allocated
// for this point and garbage once the result is. This is the
// distributed worker's entry; everything the run needs is inside pt.
func RunPoint(ctx context.Context, pt Point, o Observation) (PointResult, error) {
	return new(Worker).Run(ctx, pt, o)
}

// runGUESS runs p on an engine renewed from the Worker's last one, or
// on a fresh engine when there is none.
func (w *Worker) runGUESS(ctx context.Context, p core.Params, o Observation) (PointResult, error) {
	var engine *core.Engine
	var err error
	if w.prev != nil {
		engine, err = w.prev.Renew(p)
	} else {
		engine, err = core.New(p)
	}
	w.prev = engine // nil after a failure: the next point starts fresh
	if err != nil {
		return PointResult{}, err
	}
	engine.SetObserver(o.Observer)
	engine.SetMetrics(o.Metrics)
	res, err := engine.Run(ctx)
	if err != nil {
		return PointResult{}, err
	}
	if res.Interrupted {
		return PointResult{}, ctx.Err()
	}
	return PointResult{Family: FamilyGUESS, Core: res}, nil
}

// floodStream is the RNG stream label flood runs draw from. It keeps
// the "families-flood" name the pre-Spec inline implementation used so
// the cmp-families table is bit-for-bit unchanged by the migration.
const floodStream = "families-flood"

// runFlood executes one flooding point: build the static overlay and
// population, then run the query batch, all from one seeded stream.
func runFlood(ctx context.Context, p FloodParams) (PointResult, error) {
	if err := p.Validate(); err != nil {
		return PointResult{}, err
	}
	u, err := content.New(p.Content)
	if err != nil {
		return PointResult{}, err
	}
	rng := simrng.New(p.Seed).Stream(floodStream)
	topo, err := gnutella.NewRandom(rng, p.NetworkSize, p.AvgDegree)
	if err != nil {
		return PointResult{}, err
	}
	pop, err := gnutella.NewPopulation(u, p.NetworkSize, rng)
	if err != nil {
		return PointResult{}, err
	}
	out := &FloodResults{PeerLoads: make([]int64, p.NetworkSize)}
	var scratch gnutella.FloodScratch
	for q := 0; q < p.NumQueries; q++ {
		if ctx != nil && ctx.Err() != nil {
			return PointResult{}, ctx.Err()
		}
		res, fs, err := gnutella.FloodSearch(topo, pop, rng, &scratch, rng.Intn(p.NetworkSize), p.TTL, p.NumDesiredResults)
		if err != nil {
			return PointResult{}, err
		}
		out.Queries++
		if res.Satisfied {
			out.Satisfied++
		} else {
			out.Unsatisfied++
		}
		out.Messages += int64(fs.Messages)
		for _, v := range fs.Reached {
			out.PeerLoads[v]++
		}
	}
	return PointResult{Family: FamilyFlood, Flood: out}, nil
}
