// Package orchestrate distributes experiment sweeps across worker
// processes: a coordinator decomposes a sweep into content-addressed
// work units (experiments.Point values keyed by their sha256 params
// digest), dispatches them to workers over any net.Conn transport
// (in-memory streams in tests, TCP for real use), and assembles the
// results in spec order regardless of completion order.
//
// The design leans entirely on the repository's determinism
// guarantees: every Point is a pure function of its parameters, so a
// result computed by any worker — or by a prior run feeding a shared
// cache — is interchangeable with a locally computed one, and a sweep
// run on two workers over the wire is byte-identical to the
// single-process path. That also makes fault handling simple: a worker
// that crashes or stalls mid-unit just has its unit reassigned to
// another worker (bounded by Config.MaxRetries), with no risk of
// divergent partial state.
//
// The pieces:
//
//   - Coordinator implements experiments.Executor over connected
//     workers (Serve/HandleWorker accept them).
//   - RunWorker turns any net.Conn into a worker serving units.
//   - LocalPool wires a coordinator and K in-process workers over
//     node/memnet streams — the full wire path without sockets; this
//     backs guess-sweep -smoke and the benchmark's sweep workload.
//   - Cache (memory or disk) shares computed points across workers and
//     runs.
//   - Dashboard renders live progress, event-driven and clock-free.
//
// Metrics: each worker runs every unit against a private obs.Registry
// and streams the snapshot back with the result; after a run completes
// the coordinator folds the snapshots into Config.Metrics in unit
// order (obs.Registry.Merge), so integer-valued metrics reproduce a
// serial local run exactly and repeated distributed runs are
// byte-stable at any worker count.
package orchestrate
