// Package experiments maps every table and figure of the paper's
// evaluation (Table 3, Figures 3-21) to a runnable experiment that
// regenerates it. Each experiment returns report tables whose rows are
// the series the paper plots; EXPERIMENTS.md records paper-vs-measured
// outcomes.
//
// An experiment is defined in two halves: a spec builder that maps the
// options to typed, serializable sweep Specs (see spec.go), and a
// renderer that projects the sweep results into the paper's tables and
// charts. RunSpec executes a Spec — locally on a bounded worker pool,
// or through Options.Executor on a distributed coordinator — and
// Experiment.Run glues the halves together; Run(id, opts) is Lookup
// followed by Experiment.Run.
//
// Experiments run at two scales: Quick (small networks and short
// measurement windows, for benchmarks and CI) and Full (the paper's
// parameters). Sweep points of every family run in parallel, one
// Worker per goroutine.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// Scale selects experiment fidelity.
type Scale int

const (
	// Quick runs small networks for seconds-level turnaround.
	Quick Scale = iota
	// Full runs the paper's network sizes and durations.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Options configures an experiment run.
type Options struct {
	// Scale selects Quick or Full fidelity.
	Scale Scale
	// Seed drives all randomness. Zero means 1.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Replications pools this many independently seeded runs per sweep
	// point (0 or 1 = single run). Derived per-query metrics then
	// reflect the pooled runs, smoothing figures at a proportional
	// compute cost. Replication applies to GUESS sweeps; the other
	// families run one engine per point.
	Replications int
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialized across the worker pool (and across
	// concurrent Run calls sharing a writer).
	Progress io.Writer
	// Context, when non-nil, cancels the experiment: no further runs
	// are scheduled after cancellation, in-flight simulations stop at
	// their next event batch, and Run returns the context's error.
	Context context.Context
	// Observer, when non-nil, receives trace events from every
	// simulation in the sweep. Runs execute in parallel, so it must be
	// safe for concurrent use (TraceWriter is). Sweeps served from the
	// in-process memo cache do not re-run and emit no events.
	Observer obs.Observer
	// Metrics, when non-nil, receives the simulator metric set
	// (guess_sim_*): once each sweep's executor returns, every GUESS
	// run's Results are recorded into it in point order, before
	// replications are merged. Counters add across runs and the cache
	// gauges hold the last run's values, so the text depends on neither
	// Parallelism, the Executor, nor its cache. Sweeps served from the
	// in-process memo are not recorded again.
	Metrics *obs.Registry
	// Executor, when non-nil, executes expanded sweep points instead of
	// the built-in in-process pool — the seam internal/orchestrate's
	// coordinator and worker pool plug into. Observer applies only
	// where the executor chooses to attach it: the in-process pool
	// forwards it, a TCP coordinator does not (workers stream progress
	// frames instead). Results and Metrics are byte-identical either
	// way; only event delivery differs. The memo is kept per executor,
	// so a sweep run on one executor is never served to another.
	Executor Executor
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// durations returns (warmup, measure) simulated seconds for the scale.
// The full-scale window is sized so the complete suite stays
// laptop-affordable; individual experiments stabilize well within it
// (each point still covers tens of thousands of queries at N=1000).
func (o Options) durations() (warmup, measure float64) {
	if o.Scale == Full {
		return 300, 1000
	}
	return 200, 600
}

// baseParams returns the defaults adjusted for the option scale.
func (o Options) baseParams() core.Params {
	p := core.DefaultParams()
	p.Seed = o.seed()
	p.WarmupTime, p.MeasureTime = o.durations()
	if o.Scale == Quick {
		p.NetworkSize = 400
		// Denser queries keep per-query statistics meaningful in the
		// short quick window without changing per-query behaviour.
		p.QueryRate = 4 * core.DefaultParams().QueryRate
	}
	return p
}

// Result is one experiment's regenerated artifact.
type Result struct {
	// ID is the experiment identifier (e.g. "fig4").
	ID string
	// Title describes the paper artifact.
	Title string
	// Tables holds the regenerated rows (usually one table).
	Tables []*report.Table
	// Charts optionally holds ASCII renderings of the figure.
	Charts []*report.Chart
}

// WriteTo renders the result's tables and charts.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, t := range r.Tables {
		n, err := t.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
		m, err := io.WriteString(w, "\n")
		total += int64(m)
		if err != nil {
			return total, err
		}
	}
	for _, c := range r.Charts {
		n, err := io.WriteString(w, c.String()+"\n")
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// specsFunc maps options to an experiment's sweep Specs.
type specsFunc func(Options) []Spec

// renderFunc projects sweep results (one batch per Spec, in spec
// order, replication-merged) into the experiment's tables and charts.
type renderFunc func(Options, [][]PointResult) (*Result, error)

// experiment is a registry entry.
type experiment struct {
	title  string
	specs  specsFunc
	render renderFunc
}

// registry maps experiment IDs to definitions. Populated by init
// functions in the per-area files.
var registry = map[string]experiment{}

// register adds an experiment at package init time.
func register(id, title string, specs specsFunc, render renderFunc) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = experiment{title: title, specs: specs, render: render}
}

// IDs returns all experiment identifiers in a stable order: the paper
// artifacts first (table3, then figures in paper order), then the
// extension and ablation studies alphabetically.
func IDs() []string {
	var paper, extra []string
	for id := range registry {
		if _, ok := paperOrder(id); ok {
			paper = append(paper, id)
		} else {
			extra = append(extra, id)
		}
	}
	sort.Slice(paper, func(i, j int) bool {
		a, _ := paperOrder(paper[i])
		b, _ := paperOrder(paper[j])
		return a < b
	})
	sort.Strings(extra)
	return append(paper, extra...)
}

// paperOrder ranks paper artifacts: table3 first, then figure number.
func paperOrder(id string) (int, bool) {
	if id == "table3" {
		return 0, true
	}
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n, true
	}
	return 0, false
}

// Title returns an experiment's description.
func Title(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e.title, nil
}

// Experiment is the typed handle on one registered experiment: its
// canonical sweep Specs and the renderer that turns their results into
// the paper artifact.
type Experiment struct {
	ID    string
	Title string

	specs  specsFunc
	render renderFunc
}

// Lookup resolves an experiment ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return Experiment{ID: id, Title: e.title, specs: e.specs, render: e.render}, nil
}

// Specs returns the experiment's canonical sweep specs for the
// options: the typed, serializable decomposition a coordinator can
// fan out to workers point by point.
func (e Experiment) Specs(opts Options) []Spec {
	return e.specs(opts)
}

// Run executes the experiment: every spec through RunSpec (and so
// through Options.Executor when set), then the renderer over the
// collected results.
func (e Experiment) Run(opts Options) (*Result, error) {
	specs := e.specs(opts)
	results := make([][]PointResult, len(specs))
	for i, spec := range specs {
		rs, err := RunSpec(opts, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		results[i] = rs
	}
	res, err := e.render(opts, results)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	res.ID = e.ID
	res.Title = e.Title
	return res, nil
}

// Run looks up the experiment named id and executes it: the
// convenience entry for callers that hold an ID and want the artifact.
// Code that needs the sweep's Specs, or to tell "no such artifact" from
// "the sweep failed", calls Lookup and works with the handle.
func Run(id string, opts Options) (*Result, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// sweepMemo caches completed sweeps within a process. Several figures
// are different projections of the same sweep (Figures 3-5 share the
// cache-size sweep; Figures 16-18 and 19-21 share the poisoning
// sweeps); on a small machine re-running them would dominate the
// suite's cost. Keys include every input that affects the runs, and
// the executor that ran them (nil for the in-process pool), so a
// comparison of two executors in one process runs the sweep on both.
var sweepMemo sync.Map // memoSlot -> []PointResult

type memoSlot struct {
	exec Executor
	key  string
}

// memoKey builds a cache key from the protocol family, the options, a
// sweep label, and a digest of the parameter sets themselves. The
// family discriminator ("guess", "gossip", "dht", ...) guarantees that
// results cached for one engine can never be served to a different
// protocol whose label, scale, seed, and digest happen to coincide.
// The digest matters too: labels are chosen by experiment authors, and
// two sweeps sharing a label, scale, seed, and replication count but
// differing in params (say, after an experiment is re-tuned) must
// never silently collide.
func memoKey(family string, opts Options, label, digest string) string {
	return fmt.Sprintf("%s|%s|scale=%v|seed=%d|reps=%d|params=%s",
		family, label, opts.Scale, opts.seed(), opts.Replications, digest)
}

// paramsDigest hashes the full JSON encoding of every parameter set
// (length-prefixed, so concatenation ambiguities cannot produce equal
// digests for different sweeps). Core's Params serializes completely
// except the Trace writer, which never participates in sweeps; the
// flood, gossip and DHT parameter structs are plain data.
func paramsDigest[T any](params []T) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d;", len(params))
	for _, p := range params {
		b, err := json.Marshal(p)
		if err != nil {
			// Params is a plain data struct; Marshal cannot fail. Guard
			// anyway so a future non-serializable field cannot poison
			// the cache with colliding keys.
			panic(fmt.Sprintf("experiments: cannot hash params: %v", err))
		}
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RunSpec executes every point of a sweep Spec, returning one
// replication-merged PointResult per declared point, in spec order.
//
// This is the single memoized executor behind every sweep: a labeled
// spec is cached process-wide under its family-discriminated memoKey
// and its executor (an empty Label disables memoization), GUESS points
// expand Options.Replications independently seeded runs per point and
// merge them back, and execution goes to Options.Executor when set,
// otherwise to the bounded in-process pool.
func RunSpec(opts Options, spec Spec) ([]PointResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	memoize := spec.Label != ""
	var key memoSlot
	if memoize {
		key = memoSlot{opts.Executor, memoKey(string(spec.Family), opts, spec.Label, spec.digest())}
		if v, ok := sweepMemo.Load(key); ok {
			return v.([]PointResult), nil
		}
	}
	results, err := runSpec(opts, spec)
	if err != nil {
		return nil, err
	}
	if memoize {
		sweepMemo.Store(key, results)
	}
	return results, nil
}

// replicationSeed decorrelates replicated runs of one sweep point.
const replicationSeed = 0x51ed2701

// pointSeed decorrelates the expanded points of one sweep.
const pointSeed = 0x9e3779b9

// expandPoints turns a spec into the executable point list. For GUESS
// sweeps each point expands into reps independently seeded runs, and
// every expanded point gets a distinct seed derived from its index so
// sweep points are independent but reproducible. Expansion happens
// here — before the executor seam — so a distributed worker receives
// final parameters and local and remote execution agree byte for byte.
func expandPoints(opts Options, spec Spec, reps int) []Point {
	if spec.Family != FamilyGUESS {
		pts := make([]Point, spec.NumPoints())
		for i := range pts {
			pts[i] = spec.Point(i)
		}
		return pts
	}
	pts := make([]Point, 0, len(spec.Core)*reps)
	for _, p := range spec.Core {
		for r := 0; r < reps; r++ {
			rp := p
			if reps > 1 {
				rp.Seed = p.Seed + uint64(r+1)*replicationSeed
			}
			rp.Seed += uint64(len(pts)) * pointSeed
			pts = append(pts, Point{Family: FamilyGUESS, Core: &rp})
		}
	}
	return pts
}

// runSpec executes a validated spec without consulting the memo.
func runSpec(opts Options, spec Spec) ([]PointResult, error) {
	reps := opts.Replications
	if reps < 1 || spec.Family != FamilyGUESS {
		reps = 1
	}
	expanded := expandPoints(opts, spec, reps)
	var prs []PointResult
	var err error
	if opts.Executor != nil {
		prs, err = opts.Executor.RunPoints(opts.ctx(), expanded)
	} else {
		prs, err = runPool(opts, expanded)
	}
	if err != nil {
		return nil, err
	}
	if len(prs) != len(expanded) {
		return nil, fmt.Errorf("experiments: executor returned %d results for %d points", len(prs), len(expanded))
	}
	for i, pr := range prs {
		if err := pr.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: point %d: %w", i, err)
		}
		if pr.Family != spec.Family {
			return nil, fmt.Errorf("experiments: point %d: result family %q for a %q sweep", i, pr.Family, spec.Family)
		}
	}
	if spec.Family == FamilyGUESS {
		for _, pr := range prs {
			pr.Core.Record(opts.Metrics)
		}
	}
	if reps == 1 {
		return prs, nil
	}
	merged := make([]PointResult, len(spec.Core))
	for i := range merged {
		group := coreResultsOf(prs[i*reps : (i+1)*reps])
		merged[i] = PointResult{Family: FamilyGUESS, Core: core.MergeResults(group)}
	}
	return merged, nil
}

// progressMu serializes Options.Progress writes. It is package-level,
// not per-pool call: two concurrent experiment runs pointed at the
// same writer (the CLI does this for memoized figure groups) must not
// interleave either — per-call mutexes would only protect within one
// pool. TestParallelProgressRace exercises this under -race.
var progressMu sync.Mutex

// runPool executes expanded points of any family on a bounded pool of
// opts.parallelism() workers and returns their results in input order.
// Seeds were already derived by expandPoints. Workers take points in
// poolOrder. A worker pool (rather than one goroutine per point gated
// on a semaphore) keeps goroutine count — and therefore stack and
// scheduler footprint — flat even for multi-thousand-point sweeps.
// Each goroutine owns one Worker for the batch, so consecutive GUESS
// points recycle their arenas, and lets it go on return.
//
// Cancelling opts.Context stops the feeder (no new runs start),
// interrupts in-flight runs at their next event batch, and makes
// runPool return the context's error.
func runPool(opts Options, pts []Point) ([]PointResult, error) {
	ctx := opts.ctx()
	o := Observation{Observer: opts.Observer}
	results := make([]PointResult, len(pts))
	errs := make([]error, len(pts))
	work := make(chan int)
	workers := opts.parallelism()
	if workers > len(pts) {
		workers = len(pts)
	}
	order := poolOrder(pts, workers)
	done := 0 // completed runs, counted under progressMu
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var worker Worker
			for i := range work {
				results[i], errs[i] = worker.Run(ctx, pts[i], o)
				if errs[i] == nil && opts.Progress != nil {
					detail := string(pts[i].Family)
					if p := pts[i].Core; p != nil {
						detail = fmt.Sprintf("N=%d cache=%d", p.NetworkSize, p.CacheSize)
					}
					progressMu.Lock()
					done++
					fmt.Fprintf(opts.Progress, "  run %d/%d done (%s)\n", done, len(pts), detail)
					progressMu.Unlock()
				}
			}
		}()
	}
feed:
	for _, i := range order {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// poolOrder is the order runPool's workers take pts in: DispatchOrder,
// except that a lone worker takes them in input order, which costs it
// nothing and keeps a serial run's observer stream in point order.
func poolOrder(pts []Point, workers int) []int {
	order := DispatchOrder(pts)
	if workers == 1 {
		slices.Sort(order) // back to input order
	}
	return order
}

// cacheSizesFor returns the cache-size sweep for a given network size,
// log-spaced as in Figures 3-4. For the largest networks the sweep is
// capped at cache 1000. The cap was set for memory, which no longer
// needs it: `guess-sim -network 5000 -cache 5000 -lifespan 0.2` peaks
// at 1.9 GB RSS (91 s, 2 vCPU). Lifting it changes the committed
// full-scale record, so it waits for that record's regeneration. The
// capped range still shows the figures' growth and the satisfaction
// minimum.
func cacheSizesFor(networkSize int, scale Scale) []int {
	all := []int{5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	if scale == Quick {
		all = []int{5, 10, 20, 50, 100, 200}
	}
	maxCache := networkSize
	if networkSize >= 5000 {
		maxCache = 1000
	}
	out := make([]int, 0, len(all))
	for _, c := range all {
		if c <= maxCache {
			out = append(out, c)
		}
	}
	return out
}

// networkSizesFor returns the network-size sweep.
func networkSizesFor(scale Scale) []int {
	if scale == Full {
		return []int{200, 500, 1000, 2000}
	}
	return []int{200, 400}
}
