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
// Metrics: the orchestrator carries none. Units return Results only;
// experiments.Options.Metrics records every sweep's Results once its
// executor returns, so a distributed sweep's metrics equal a local
// run's byte for byte, at any worker count and whatever the cache held.
package orchestrate
