package guess

import (
	"context"
	"io"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/policy"
)

// Config holds all simulation parameters: the paper's system
// parameters (Table 1), protocol parameters (Table 2), the content
// model, and run control. Construct with DefaultConfig and override
// fields; see the field documentation on the underlying type.
type Config = core.Params

// Results holds a run's measurements: query cost and satisfaction,
// probe breakdowns, cache health, per-peer load, and overlay
// connectivity.
type Results = core.Results

// ContentParams configures the synthetic content and query model.
type ContentParams = content.Params

// DefaultConfig returns the paper's default configuration.
func DefaultConfig() Config { return core.DefaultParams() }

// DefaultContentParams returns the calibrated content-model defaults.
func DefaultContentParams() ContentParams { return content.DefaultParams() }

// MetricsRegistry collects named counters, gauges, and histograms.
// Attach one to a run with WithMetrics, then render it with
// WritePrometheus (text exposition format), WriteJSON, or Snapshot.
// A single registry may be shared by several runs; the counters then
// aggregate across them.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Observer receives simulation trace events (query lifecycle, probes,
// pongs, churn); attach one with WithObserver. Implementations must be
// fast — Observe runs inline on the simulation loop — and, when the
// same observer watches parallel runs, safe for concurrent use.
type Observer = obs.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = obs.ObserverFunc

// TraceEvent is one simulation trace event; see the Kind field and the
// Ev* constants for the schema (documented in README.md,
// "Observability").
type TraceEvent = obs.Event

// TraceEventKind classifies a TraceEvent.
type TraceEventKind = obs.EventKind

// TraceOutcome classifies probe, ping, and query-done events.
type TraceOutcome = obs.Outcome

// Trace event kinds.
const (
	EvQueryIssued = obs.EvQueryIssued
	EvProbeRound  = obs.EvProbeRound
	EvProbe       = obs.EvProbe
	EvPong        = obs.EvPong
	EvQueryDone   = obs.EvQueryDone
	EvPeerBirth   = obs.EvPeerBirth
	EvPeerDeath   = obs.EvPeerDeath
	EvPing        = obs.EvPing
)

// Trace outcomes.
const (
	OutcomeGood      = obs.OutcomeGood
	OutcomeDead      = obs.OutcomeDead
	OutcomeRefused   = obs.OutcomeRefused
	OutcomeSatisfied = obs.OutcomeSatisfied
	OutcomeExhausted = obs.OutcomeExhausted
	OutcomeAborted   = obs.OutcomeAborted
)

// TraceWriter is an Observer that appends events to a writer as JSON
// Lines; it is safe for concurrent use.
type TraceWriter = obs.TraceWriter

// NewTraceWriter returns a TraceWriter emitting every event kind;
// restrict it with Mask (e.g. TraceQueryEvents).
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// Trace masks for TraceWriter.Mask.
const (
	// TraceQueryEvents selects the per-query kinds (issued, rounds,
	// probes, pongs, done).
	TraceQueryEvents = obs.QueryEventMask
	// TraceAllEvents additionally selects churn and ping events.
	TraceAllEvents = obs.AllEventMask
)

// Option customizes a Run.
type Option func(*runOptions)

type runOptions struct {
	observer Observer
	metrics  *MetricsRegistry
	progress io.Writer
}

// WithObserver streams trace events from the run to o. Observation
// never perturbs the simulation: a run with an observer attached is
// byte-identical to the same seed without one.
func WithObserver(o Observer) Option {
	return func(ro *runOptions) { ro.observer = o }
}

// WithMetrics registers the simulator metric set (guess_sim_*) in reg
// and updates it during the run. Metrics never perturb the simulation.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(ro *runOptions) { ro.metrics = reg }
}

// WithProgress writes a short progress line to w at every cache-health
// sample interval.
func WithProgress(w io.Writer) Option {
	return func(ro *runOptions) { ro.progress = w }
}

// Run executes one GUESS simulation. Cancelling ctx stops the run
// early: Run then returns the partial Results measured so far, with
// Results.Interrupted set and a nil error. A nil ctx is treated as
// context.Background().
func Run(ctx context.Context, cfg Config, opts ...Option) (*Results, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	engine, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if ro.observer != nil {
		engine.SetObserver(ro.observer)
	}
	if ro.metrics != nil {
		engine.SetMetrics(obs.NewSimMetrics(ro.metrics))
	}
	if ro.progress != nil {
		engine.SetProgress(ro.progress)
	}
	return engine.Run(ctx)
}

// Selection orders cache entries for probing and pong construction
// (the QueryProbe, QueryPong, PingProbe and PingPong policy types).
type Selection = policy.Selection

// Selection policies (Section 4 of the paper).
const (
	// Random selects uniformly; the fairness baseline.
	Random = policy.SelRandom
	// MRU prefers recently contacted peers (most likely alive).
	MRU = policy.SelMRU
	// LRU prefers stale entries (spreads load, risks dead peers).
	LRU = policy.SelLRU
	// MFS prefers peers sharing the most files.
	MFS = policy.SelMFS
	// MR prefers peers that returned the most results.
	MR = policy.SelMR
	// MRStar is MR using only first-hand experience (robust to lies).
	MRStar = policy.SelMRStar
)

// Eviction picks link-cache victims (the CacheReplacement policy
// type). Names follow the paper: the policy evicts what it names.
type Eviction = policy.Eviction

// Cache replacement policies (Section 4 of the paper).
const (
	// EvictRandom evicts a uniformly random entry.
	EvictRandom = policy.EvRandom
	// EvictLRU evicts the least recently used entry (keeps recency).
	EvictLRU = policy.EvLRU
	// EvictMRU evicts the most recently used entry (keeps stale ones).
	EvictMRU = policy.EvMRU
	// EvictLFS evicts the peer sharing the fewest files (the MFS goal).
	EvictLFS = policy.EvLFS
	// EvictLR evicts the peer with the fewest results (the MR goal).
	EvictLR = policy.EvLR
	// EvictLRStar is EvictLR on first-hand experience only.
	EvictLRStar = policy.EvLRStar
)

// EvictionFor returns the cache-replacement policy that retains what
// sel prefers (MFS -> EvictLFS, MR -> EvictLR, and so on).
func EvictionFor(sel Selection) Eviction { return policy.EvictionFor(sel) }

// ParseSelection resolves a selection policy name ("Random", "MRU",
// "LRU", "MFS", "MR", "MR*").
func ParseSelection(name string) (Selection, error) { return policy.ParseSelection(name) }

// ParseEviction resolves an eviction policy name ("Random", "LRU",
// "MRU", "LFS", "LR", "LR*").
func ParseEviction(name string) (Eviction, error) { return policy.ParseEviction(name) }

// BadPongBehavior is what a malicious peer puts in its pongs.
type BadPongBehavior = core.BadPongBehavior

// Malicious pong behaviors (Section 6.4 of the paper).
const (
	// BadPongDead poisons caches with fabricated dead addresses.
	BadPongDead = core.BadPongDead
	// BadPongBad poisons caches with colluders' addresses.
	BadPongBad = core.BadPongBad
	// BadPongGood returns genuine entries (the peer still returns no
	// results).
	BadPongGood = core.BadPongGood
)

// ParseBadPongBehavior resolves a malicious pong behavior name
// ("Dead", "Bad", "Good").
func ParseBadPongBehavior(name string) (BadPongBehavior, error) {
	return core.ParseBadPongBehavior(name)
}

// ExperimentOptions configures experiment regeneration (scale, seed,
// parallelism, progress output).
type ExperimentOptions = experiments.Options

// ExperimentResult is a regenerated table/figure.
type ExperimentResult = experiments.Result

// Experiment scales.
const (
	// ScaleQuick runs small networks for fast turnaround.
	ScaleQuick = experiments.Quick
	// ScaleFull runs the paper's network sizes and durations.
	ScaleFull = experiments.Full
)

// ExperimentIDs lists every reproducible paper artifact ("table3",
// "fig3" ... "fig21") in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle describes an experiment ID.
func ExperimentTitle(id string) (string, error) { return experiments.Title(id) }

// Experiment is a typed handle on one paper artifact: inspect its
// sweep specs (Specs) or execute it (Run).
type Experiment = experiments.Experiment

// ExperimentFamily discriminates the protocol families an experiment
// point can run on ("guess", "flood", "gossip", "dht").
type ExperimentFamily = experiments.Family

// ExperimentSpec is a serializable description of one sweep: the
// protocol family plus the fully-resolved parameters of every point.
type ExperimentSpec = experiments.Spec

// ExperimentPoint is one serializable, content-addressed sweep work
// unit (see its Key method).
type ExperimentPoint = experiments.Point

// ExperimentPointResult is the serializable outcome of one point.
type ExperimentPointResult = experiments.PointResult

// LookupExperiment resolves an experiment ID to its typed handle.
func LookupExperiment(id string) (Experiment, error) {
	return experiments.Lookup(id)
}

// RunExperiment regenerates one paper table or figure.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opts)
}
