package orchestrate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// RunWorker serves one coordinator connection: announce the worker's
// name, then execute units until the coordinator hangs up. Every unit
// runs against a private metrics registry whose snapshot rides back
// with the result, so the coordinator can aggregate run metrics
// deterministically.
//
// Returns nil when the coordinator closes the connection cleanly, and
// ctx.Err() when the context ends (the connection is closed to unblock
// any pending read, abandoning the in-flight unit — the coordinator
// reassigns it).
func RunWorker(ctx context.Context, conn net.Conn, name string) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if name == "" {
		name = "worker"
	}
	if err := sendMsg(conn, message{Type: msgHello, Worker: name}); err != nil {
		return fmt.Errorf("orchestrate: worker %s hello: %w", name, err)
	}
	for {
		m, err := recvMsg(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("orchestrate: worker %s: %w", name, err)
		}
		if m.Type != msgUnit {
			return fmt.Errorf("orchestrate: worker %s: unexpected %q", name, m.Type)
		}
		reply := executeUnit(ctx, m.Unit)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := sendMsg(conn, reply); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("orchestrate: worker %s: %w", name, err)
		}
	}
}

// executeUnit runs one unit and shapes the protocol reply. Execution
// errors (an invalid point, a key mismatch from a corrupt frame)
// become error messages rather than dropped connections — the worker
// stays usable.
func executeUnit(ctx context.Context, wu *workUnit) message {
	fail := func(err error) message {
		return message{Type: msgError, UnitID: wu.ID, Error: err.Error()}
	}
	if err := wu.Point.Validate(); err != nil {
		return fail(err)
	}
	if key := wu.Point.Key(); key != wu.Key {
		return fail(fmt.Errorf("unit %d key mismatch: computed %s, dispatched %s", wu.ID, key, wu.Key))
	}
	// Metrics apply to GUESS runs only (Observation's contract); other
	// families would snapshot all-zero instruments, and merging those
	// would zero gauges a local run leaves untouched.
	var o experiments.Observation
	var reg *obs.Registry
	if wu.Point.Family == experiments.FamilyGUESS {
		reg = obs.NewRegistry()
		o.Metrics = obs.NewSimMetrics(reg)
	}
	// A fresh engine per unit, not an experiments.Worker per connection:
	// a Worker keeps its last engine's arenas reachable, and a
	// connection outlives a sweep, so every idle pool worker would pin
	// one engine's worth of heap between sweeps (bench's
	// sweep-quick/live_heap_mb is read with the pool still open and
	// measures exactly that). A Worker lives for one in-process batch.
	pr, err := experiments.RunPoint(ctx, wu.Point, o)
	if err != nil {
		return fail(err)
	}
	res := &unitResult{ID: wu.ID, Key: wu.Key, Result: pr}
	if reg != nil {
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	return message{Type: msgResult, Result: res}
}
