package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/node"
	"repro/node/memnet"
)

// fleetShape sizes node-fleet.
type fleetShape struct {
	nodes, items, bootstrap int
	warmup                  time.Duration
	pingInterval            time.Duration
}

// loadClients is the number of load-generating goroutines in both node
// workloads: one per core of the reference box, so the generators and
// the nodes' serve loops contend for the same two cores every run.
const loadClients = 2

func fleetShapeFor(quick bool) fleetShape {
	if quick {
		return fleetShape{nodes: 8, items: 10, bootstrap: 4, warmup: 100 * time.Millisecond, pingInterval: 50 * time.Millisecond}
	}
	return fleetShape{nodes: 64, items: 40, bootstrap: 20, warmup: 2 * time.Second, pingInterval: 250 * time.Millisecond}
}

// fleet is a set of live nodes on one in-process network.
type fleet struct {
	nodes []*node.Node
}

// buildFleet starts the nodes on a zero-latency memnet with flat
// admission and no capacity limit, and seeds their link caches.
func buildFleet(seed uint64, in fleetInputs, sh fleetShape) (*fleet, error) {
	nw := memnet.New(seed)
	f := &fleet{}
	for i, files := range in.Libraries {
		n, err := node.New(nw.Listen(), node.Config{
			Files:        files,
			PingInterval: sh.pingInterval,
			Seed:         seed + uint64(i) + 1,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	for i, peers := range in.Bootstrap {
		for _, p := range peers {
			f.nodes[i].AddPeer(f.nodes[p].Addr(), uint32(len(in.Libraries[p])))
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.Close()
	}
}

// serveTotals sums the serve-path counters over nodes into the
// per-layer metrics both node workloads report.
func serveTotals(r *runResult, nodes []*node.Node) {
	var t node.Stats
	for _, n := range nodes {
		s := n.Stats()
		t.QueriesServed += s.QueriesServed
		t.ProbesRefused += s.ProbesRefused
		t.ShedQueries += s.ShedQueries
		t.ShedPings += s.ShedPings
		t.CacheWriteSkips += s.CacheWriteSkips
		t.LateReplies += s.LateReplies
	}
	r.set("node.queries_served", float64(t.QueriesServed))
	r.set("node.probes_refused", float64(t.ProbesRefused))
	r.set("node.shed_queries", float64(t.ShedQueries))
	r.set("node.shed_pings", float64(t.ShedPings))
	r.set("node.cache_write_skips", float64(t.CacheWriteSkips))
	r.set("node.late_replies", float64(t.LateReplies))
}

// Phases of a node workload's load generators.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// windows counts completions in equal slices of the measured phase.
// The reported rate is the median slice's, which a single stall (a
// collection, a neighbour on the box) cannot move the way it moves a
// mean.
type windows struct {
	start  time.Time
	length time.Duration
	counts []atomic.Int64
}

// newWindows cuts the measured phase into half-second slices, twenty at
// most. A shorter slice would be mostly scheduling noise.
func newWindows(start time.Time, total time.Duration) *windows {
	n := min(max(int(total/(500*time.Millisecond)), 1), 20)
	return &windows{start: start, length: total / time.Duration(n), counts: make([]atomic.Int64, n)}
}

func (w *windows) add(at time.Time) {
	i := int(at.Sub(w.start) / w.length)
	if i >= 0 && i < len(w.counts) {
		w.counts[i].Add(1)
	}
}

// medianRate is the median window's completions per second.
func (w *windows) medianRate() float64 {
	rates := make([]float64, len(w.counts))
	for i := range w.counts {
		rates[i] = float64(w.counts[i].Load()) / w.length.Seconds()
	}
	return median(rates)
}

// fleetClient is one closed-loop caller's tally.
type fleetClient struct {
	latUS                      []float64
	attempted, failed          int64
	probes, good, dead, refuse int64
}

// runFleet drives Node.Query from two closed-loop clients: each waits
// for its query to return before issuing the next.
func runFleet(ctx context.Context, o runOpts, tr *tracer, r *runResult) error {
	sh := fleetShapeFor(o.quick)
	in := genFleet(o.seed, sh.nodes, sh.items, sh.bootstrap, loadClients, 1<<14)

	var f *fleet
	setup, err := medianSetup(5, func() error {
		var err error
		f, err = buildFleet(o.seed, in, sh)
		return err
	}, func() { f.close() })
	if err != nil {
		return err
	}
	defer f.close()
	r.set("setup_s", setup)

	measure := time.Duration(o.seconds * float64(time.Second))
	var phase atomic.Int32
	var win atomic.Pointer[windows]
	clients := make([]fleetClient, loadClients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int, cl *fleetClient) {
			defer wg.Done()
			stream := in.Streams[c]
			for i := 0; phase.Load() != phaseStop; i++ {
				q := stream[i%len(stream)]
				keyword := in.Keywords[q.Item]
				measured := phase.Load() == phaseMeasure
				start := time.Now()
				hits, qs, err := f.nodes[q.Origin].Query(ctx, keyword, 1)
				end := time.Now()
				if !measured || phase.Load() != phaseMeasure {
					continue
				}
				win.Load().add(end)
				tr.record("node.Query", int64(c)<<32|int64(i), start, end)
				cl.latUS = append(cl.latUS, float64(end.Sub(start).Nanoseconds())/1e3)
				cl.attempted++
				// Every item is on at least two nodes, so some node
				// other than the issuer always holds it.
				ok := err == nil && len(hits) > 0
				for _, h := range hits {
					ok = ok && strings.Contains(h.Name, keyword)
				}
				if !ok {
					cl.failed++
				}
				cl.probes += int64(qs.Probes)
				cl.good += int64(qs.Good)
				cl.dead += int64(qs.Dead)
				cl.refuse += int64(qs.Refused)
			}
		}(c, &clients[c])
	}

	time.Sleep(sh.warmup)
	// The fleet's footprint with its caches warm, before the harness's
	// own latency samples join the heap.
	r.observeHeapUnderLoad()
	w := newWindows(time.Now(), measure)
	win.Store(w)
	phase.Store(phaseMeasure)
	time.Sleep(measure)
	phase.Store(phaseStop)
	wg.Wait()

	var lat []float64
	var total fleetClient
	for i := range clients {
		cl := &clients[i]
		lat = append(lat, cl.latUS...)
		total.attempted += cl.attempted
		total.failed += cl.failed
		total.probes += cl.probes
		total.good += cl.good
		total.dead += cl.dead
		total.refuse += cl.refuse
	}
	r.count(total.attempted, total.failed, "queries (error, wrong hit, or no hit for a held item)")
	r.check(total.attempted > 0, "no query completed in the measured phase")
	sort.Float64s(lat)
	r.Samples["queries"] = len(lat)

	rate := w.medianRate()
	r.set("ops_per_s", rate)
	r.set("op_p50_us", percentile(lat, 50))

	r.set("trace.ops_per_s", rate)
	p, v := tailPercentile(lat)
	r.set("node.query_ptail_us", v)
	r.set("node.query_ptail_pct", p)
	r.set("node.query_samples", float64(len(lat)))
	if total.attempted > 0 && total.probes > 0 {
		r.set("node.probes_per_query", float64(total.probes)/float64(total.attempted))
		r.set("node.client_probes_per_s", float64(total.probes)/measure.Seconds())
		r.set("node.good_probe_frac", float64(total.good)/float64(total.probes))
	}
	r.set("node.dead_probes", float64(total.dead))
	r.set("node.refused_probes", float64(total.refuse))
	serveTotals(r, f.nodes)
	return nil
}
