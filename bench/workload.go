package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the
// same names; TestBenchmarkJSONMatchesHarness keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports with tracing off.
// What one "op" is depends on the workload (see README.md):
//
//	families         one engine run; op_p50_us is the paper-default
//	                 guess.Run per simulated probe
//	sweep-quick      one executed sweep point; op_p50_us is one figure
//	sim-churn-100k   one simulated second; op_p50_us is one 100k-peer run
//	node-fleet       one Node.Query call
//	node-flashcrowd  one probe answered (served or refused)
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
}

// perLayer are the metrics of the traced run. A workload that does not
// exercise a layer reports 0 for it; the probe metrics (a fixed loop
// over the layer's exported functions) are measured in every traced
// run, so each workload's figures sit beside the same floor.
var perLayer = []metricDef{
	// The traced run as a whole.
	{"trace.ops_per_s", "1/s"},
	{"trace.spans", "count"},
	{"proc.peak_rss_mb", "MB"},

	// One run of each engine (families).
	{"guess.run_s", "s"},
	{"gossip.run_s", "s"},
	{"gnutella.flood_run_s", "s"},
	{"dht.run_s", "s"},
	{"gossip.messages", "count"},
	{"gossip.run_ns_per_msg", "ns"},
	{"gnutella.messages", "count"},
	{"gnutella.flood_ns_per_msg", "ns"},
	{"dht.hops", "count"},
	{"dht.run_ns_per_hop", "ns"},

	// internal/core, from spans around New / Renew / Run and a
	// counting observer.
	{"core.new_ms", "ms"},
	{"core.renew_ms", "ms"},
	{"core.events", "count"},
	{"core.run_ns_per_event", "ns"},
	{"core.allocs_per_run", "count"},
	{"core.alloc_mb_per_run", "MB"},

	// internal/experiments and internal/orchestrate (sweep-quick).
	{"experiments.specs_ms", "ms"},
	{"experiments.point_key_us", "us"},
	{"orchestrate.dispatch_us_per_unit", "us"},
	{"orchestrate.overhead_frac", "frac"},
	{"orchestrate.reassigned", "count"},

	// node client path (node-fleet).
	{"node.query_ptail_us", "us"},
	{"node.query_ptail_pct", "%"},
	{"node.query_samples", "count"},
	{"node.probes_per_query", "count"},
	{"node.client_probes_per_s", "1/s"},
	{"node.good_probe_frac", "frac"},
	{"node.dead_probes", "count"},
	{"node.refused_probes", "count"},

	// node serve path counters, summed over the nodes (both node
	// workloads).
	{"node.queries_served", "count"},
	{"node.probes_refused", "count"},
	{"node.shed_queries", "count"},
	{"node.shed_pings", "count"},
	{"node.cache_write_skips", "count"},
	{"node.late_replies", "count"},

	// node/cluster and the flash crowd's requesters.
	{"cluster.sync_rounds", "count"},
	{"cluster.fallbacks", "count"},
	{"cluster.shed_lag_ms", "ms"},
	{"cluster.light_served_frac", "frac"},
	{"cluster.heavy_shed_frac", "frac"},
	{"node.light_p50_us", "us"},
	{"node.heavy_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},

	// Probes.
	{"simrng.uint64_ns", "ns"},
	{"eventq.pushpop_ns.1k", "ns"},
	{"eventq.pushpop_ns.100k", "ns"},
	{"eventq.sharded_pushpop_ns.100k", "ns"},
	{"cache.add_remove_ns.cap100", "ns"},
	{"cache.add_remove_ns.cap200", "ns"},
	{"cache.touch_ns", "ns"},
	{"policy.insert_ns.random", "ns"},
	{"policy.insert_ns.lru", "ns"},
	{"policy.insert_ns.lr", "ns"},
	{"policy.pickn_ns", "ns"},
	{"policy.selector_next_ns", "ns"},
	{"overlay.wcc_ms", "ms"},
	{"frame.write_read_ns.1k", "ns"},
	{"frame.write_read_ns.64k", "ns"},
	{"wire.encode_ns.query", "ns"},
	{"wire.encode_ns.queryhit", "ns"},
	{"wire.encode_ns.busy", "ns"},
	{"wire.decode_ns.query", "ns"},
	{"wire.decode_ns.queryhit", "ns"},
	{"wire.decode_ns.busy", "ns"},
	{"wire.allocs_per_roundtrip", "count"},
	{"memnet.roundtrip_ns", "ns"},
	{"node.serve_query_ns.flat", "ns"},
	{"node.serve_query_ns.fair", "ns"},
	{"node.serve_ping_ns", "ns"},
	{"node.shed_ns", "ns"},
	{"obs.counter_inc_ns", "ns"},
	{"obs.tracewriter_event_ns", "ns"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	// quick shrinks every workload to toy size so the tests can drive
	// the whole harness in a few seconds; its numbers mean nothing.
	quick  bool
	outDir string
}

// runResult is everything one run reports. The driver's result line
// carries only Correct, Attempted, Failed and Metrics; the rest goes
// into the result files this harness writes for -compare.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`

	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Digest is the sha256 of the simulated outputs (Results JSON or
	// rendered tables) in run order; empty for the node workloads,
	// whose outputs depend on goroutine timing.
	Digest string `json:"results_digest,omitempty"`
	// Samples counts the observations behind the timing metrics.
	Samples map[string]int `json:"samples,omitempty"`
	// Notes lists failed output checks (first few) and anything else a
	// reader of the numbers should know.
	Notes []string `json:"notes,omitempty"`
	// SelfTimes is the traced run's per-span-name aggregate.
	SelfTimes map[string]spanAgg `json:"self_times,omitempty"`

	digest     hash.Hash
	digestOff  bool
	liveHeapMB float64
}

func newRunResult(name string, o runOpts) *runResult {
	r := &runResult{
		Workload: name,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		Metrics:  make(map[string]metric),
		Samples:  make(map[string]int),
		digest:   sha256.New(),
	}
	if o.trace {
		// A layer the workload does not exercise reads 0.
		for _, d := range perLayer {
			r.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
	return r
}

// catalogEntry is a metric's unit and whether the traced run reports it.
type catalogEntry struct {
	unit   string
	traced bool
}

// catalog maps every metric name to its entry.
var catalog = func() map[string]catalogEntry {
	m := make(map[string]catalogEntry, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = catalogEntry{d.Unit, false}
	}
	for _, d := range perLayer {
		m[d.Name] = catalogEntry{d.Unit, true}
	}
	return m
}()

// set records a metric. Workloads compute what they can and the run's
// kind decides what is reported: an end-to-end name is dropped from a
// traced run and the reverse. A name in neither list is a typo.
func (r *runResult) set(name string, v float64) {
	def, ok := catalog[name]
	if !ok {
		panic("bench: metric " + name + " is in neither catalog")
	}
	if def.traced != r.Trace {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: def.unit}
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// observeHeap keeps the live heap if it is the run's largest so far.
// Workloads call it while what they built is still reachable: the
// engines return a pointer into themselves, so an engine lives as long
// as its results do. Unlike the peak resident set (proc.peak_rss_mb),
// which moves by a tenth or more with where the collector's cycles
// happen to fall, this repeats.
func (r *runResult) observeHeap() {
	r.liveHeapMB = max(r.liveHeapMB, liveHeapMB())
}

// observeHeapUnderLoad is observeHeap for a workload whose goroutines
// keep allocating while it looks: the median of five readings, because
// packets in flight and half-built replies are a tenth of these small
// heaps.
func (r *runResult) observeHeapUnderLoad() {
	readings := make([]float64, 5)
	for i := range readings {
		readings[i] = liveHeapMB()
		time.Sleep(10 * time.Millisecond)
	}
	r.liveHeapMB = max(r.liveHeapMB, median(readings))
}

// check counts one output check and records it when it fails.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// count adds operations whose failures the workload tallied itself.
func (r *runResult) count(attempted, failed int64, what string) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.note("%d of %d %s failed", failed, attempted, what)
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

func (r *runResult) note(format string, args ...any) {
	const maxNotes = 20
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// digestJSON folds v's JSON encoding into the results digest.
func (r *runResult) digestJSON(v any) error {
	if r.digestOff {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	fmt.Fprintf(r.digest, "%d:", len(b))
	r.digest.Write(b)
	r.Digest = hex.EncodeToString(r.digest.Sum(nil))
	return nil
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	// Why records the reason the workload exists; BENCHMARK.json
	// carries the same sentence.
	Why string
	run func(ctx context.Context, o runOpts, tr *tracer, r *runResult) error
}

var workloads = []workload{
	{"families", "one serial run of each engine (guess, gossip, flood, dht): the query-path unit of work every sweep is built from", runFamilies},
	{"sweep-quick", "fig3+fig9+fig14 at quick scale through a 2-worker orchestrate pool: what regenerating figures costs, cache in both index regimes", runSweep},
	{"sim-churn-100k", "100k peers under churn with connectivity sampling: the maintenance path and a 1e5-entry event heap, not queries; the memory workload", runChurn},
	{"node-fleet", "64 live nodes on zero-latency memnet, 2 closed-loop clients: the client and serve paths with admission idle", runFleet},
	{"node-flashcrowd", "4 fair-admission nodes with cluster sync, a heavy closed-loop and 16 light open-loop raw requesters: shed path under overload", runFlashcrowd},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload executes one run of one workload in this process and
// fills in what every workload shares: the peak resident set, the
// probes and the span file of a traced run, and the verdict.
func runWorkload(ctx context.Context, w workload, o runOpts) (*runResult, error) {
	r := newRunResult(w.Name, o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := w.run(ctx, o, tr, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.set("live_heap_mb", r.liveHeapMB)
	// Read before the probes run: the peak must belong to the workload.
	r.set("proc.peak_rss_mb", peakRSSMB())
	if o.trace {
		spans, dropped := tr.snapshot()
		r.SelfTimes = selfTimes(spans)
		r.set("trace.spans", float64(int64(len(spans))+dropped))
		if err := writeSpans(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl"), spans, dropped); err != nil {
			return nil, err
		}
		if err := runProbes(o, r); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
		}
	} else {
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || m.Value <= 0 {
				r.fail("end-to-end metric %s was not measured", d.Name)
			}
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// peakRSSMB is the process's peak resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measuredPasses calls pass with 0, 1, 2, ... until at least seconds
// of host time and minPasses passes are spent, and returns the wall
// time. A simulation is a fixed amount of work, so the run length
// rounds up to whole passes. Only the first minPasses passes feed the
// results digest: how many more fit depends on the box, and the digest
// must not.
func measuredPasses(r *runResult, seconds float64, minPasses int, pass func(i int) error) (time.Duration, int, error) {
	start := time.Now()
	n := 0
	defer func() { r.digestOff = false }()
	for n < minPasses || time.Since(start).Seconds() < seconds {
		r.digestOff = n >= minPasses
		if err := pass(n); err != nil {
			return 0, n, err
		}
		n++
	}
	return time.Since(start), n, nil
}

// medianSetup builds the workload's fixtures repeatedly and returns the
// median seconds one build took: at least minReps builds, and more
// while they are cheap. Set-up is short next to the measured phase, so
// one reading of it would mostly be noise. discard, when not nil,
// tears a build down, untimed, before the next; the last build is kept.
func medianSetup(minReps int, build func() error, discard func()) (float64, error) {
	const (
		budget  = 300 * time.Millisecond
		maxReps = 200
	)
	var times []float64
	var spent time.Duration
	for len(times) < minReps || (spent < budget && len(times) < maxReps) {
		if len(times) > 0 && discard != nil {
			discard()
		}
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}
