package orchestrate

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Config configures a Coordinator. The zero value is usable: two
// reassignments per unit, a two-minute unit timeout, no cache, no
// dashboard.
type Config struct {
	// MaxRetries bounds how many times one unit may be reassigned
	// after a worker failure before the run fails. 0 means the default
	// (2); negative disables retries entirely.
	MaxRetries int
	// UnitTimeout bounds how long a dispatched unit may take before
	// its worker is declared dead and the unit reassigned. 0 means the
	// default (2 minutes); negative disables the timeout.
	UnitTimeout time.Duration
	// Cache, when non-nil, is consulted before dispatch and fed every
	// computed result, sharing points across runs and with the sweep
	// memo's disk form.
	Cache Cache
	// Dashboard, when non-nil, is updated on every state change.
	Dashboard *Dashboard
}

const (
	defaultMaxRetries  = 2
	defaultUnitTimeout = 2 * time.Minute
)

// Stats counts coordinator activity over its lifetime. UnitsTotal and
// UnitsDone count deduplicated units (cache hits included); Executed
// counts units actually computed by workers; Deduped counts the input
// points beyond the first that shared a unit.
type Stats struct {
	Workers    int
	UnitsTotal int
	UnitsDone  int
	Executed   int
	CacheHits  int
	Deduped    int
	Reassigned int
	Duplicates int
}

// unit lifecycle states.
const (
	unitPending = iota
	unitRunning
	unitDone
)

// unit is one deduplicated work unit of the active run.
type unit struct {
	id      int
	key     string
	pt      experiments.Point
	indices []int // positions in the input batch this unit fills
	state   int
	retries int
}

// runState is one RunPoints invocation in flight.
type runState struct {
	units     []*unit
	queue     []int // pending unit ids, dispatch order
	remaining int
	failed    error
	done      chan struct{}
	results   []experiments.PointResult
}

// Coordinator decomposes sweeps into content-addressed work units and
// executes them on connected workers. It implements
// experiments.Executor; plug it into Options.Executor and every sweep
// of the experiment runs distributed.
//
// One RunPoints call is active at a time (the experiment harness runs
// specs sequentially); workers may come and go freely — a sweep
// dispatched with no workers connected simply waits for the first one.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	workers int
	run     *runState
	stats   Stats
}

var _ experiments.Executor = (*Coordinator)(nil)

// New returns a Coordinator with the given configuration.
func New(cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Coordinator) maxRetries() int {
	switch {
	case c.cfg.MaxRetries < 0:
		return 0
	case c.cfg.MaxRetries == 0:
		return defaultMaxRetries
	}
	return c.cfg.MaxRetries
}

func (c *Coordinator) unitTimeout() time.Duration {
	switch {
	case c.cfg.UnitTimeout < 0:
		return 0
	case c.cfg.UnitTimeout == 0:
		return defaultUnitTimeout
	}
	return c.cfg.UnitTimeout
}

// Stats returns a snapshot of the lifetime counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// publish pushes current stats to the dashboard; callers hold c.mu.
// A closed coordinator stops publishing so shutdown churn (workers
// unwinding) does not scroll past the final sweep state.
func (c *Coordinator) publish() {
	if c.closed {
		return
	}
	c.cfg.Dashboard.update(c.stats)
}

// Close shuts the coordinator down: the active run (if any) fails, and
// worker handlers return once their current unit settles.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.run != nil {
		c.finishLocked(c.run, errors.New("orchestrate: coordinator closed"))
	}
	c.cond.Broadcast()
}

// finishLocked ends run r with err (nil for success); callers hold
// c.mu.
func (c *Coordinator) finishLocked(r *runState, err error) {
	if c.run != r {
		return
	}
	r.failed = err
	c.run = nil
	close(r.done)
	c.cond.Broadcast()
}

// RunPoints implements experiments.Executor: deduplicate the batch
// into units, satisfy what the cache can, dispatch the rest to
// workers in experiments.DispatchOrder, and assemble results in input
// order. On failure (retries exhausted, context canceled, coordinator
// closed) no partial results are returned.
func (c *Coordinator) RunPoints(ctx context.Context, pts []experiments.Point) ([]experiments.PointResult, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	r := &runState{
		results: make([]experiments.PointResult, len(pts)),
		done:    make(chan struct{}),
	}
	byKey := make(map[string]*unit, len(pts))
	deduped := 0
	for i, pt := range pts {
		if err := pt.Validate(); err != nil {
			return nil, err
		}
		key := pt.Key()
		if u, ok := byKey[key]; ok {
			u.indices = append(u.indices, i)
			deduped++
			continue
		}
		u := &unit{id: len(r.units), key: key, pt: pt, indices: []int{i}}
		byKey[key] = u
		r.units = append(r.units, u)
	}
	// Pending units queue in DispatchOrder, costliest first.
	unitPts := make([]experiments.Point, len(r.units))
	for id, u := range r.units {
		unitPts[id] = u.pt
	}
	cacheHits := 0
	for _, id := range experiments.DispatchOrder(unitPts) {
		u := r.units[id]
		if c.cfg.Cache != nil {
			if pr, ok := c.cfg.Cache.Get(u.key); ok && pr.Family == u.pt.Family && pr.Validate() == nil {
				u.state = unitDone
				for _, i := range u.indices {
					r.results[i] = pr
				}
				cacheHits++
				continue
			}
		}
		r.queue = append(r.queue, u.id)
		r.remaining++
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("orchestrate: coordinator closed")
	}
	if c.run != nil {
		c.mu.Unlock()
		return nil, errors.New("orchestrate: a sweep is already running")
	}
	c.stats.UnitsTotal += len(r.units)
	c.stats.UnitsDone += cacheHits
	c.stats.CacheHits += cacheHits
	c.stats.Deduped += deduped
	if r.remaining == 0 {
		c.publish()
		c.mu.Unlock()
		return r.results, nil
	}
	c.run = r
	c.publish()
	c.cond.Broadcast()
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.finishLocked(r, ctx.Err())
		c.mu.Unlock()
		<-r.done
	case <-r.done:
	}
	if r.failed != nil {
		return nil, r.failed
	}
	return r.results, nil
}

// WaitWorkers blocks until at least n workers are connected (or the
// coordinator closes). LocalPool uses it so a pool is fully staffed
// before its first sweep, and the sweep CLI's -min-workers gate so
// dispatch starts against a known fleet — startup is deterministic,
// not raced.
func (c *Coordinator) WaitWorkers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed && c.workers < n {
		c.cond.Wait()
	}
}

// next blocks until a unit is available for dispatch (or the
// coordinator closes). It returns the run the unit belongs to so
// completions can be matched against the right run even after it ends.
func (c *Coordinator) next() (*runState, *unit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, nil, false
		}
		if c.run != nil && len(c.run.queue) > 0 {
			r := c.run
			id := r.queue[0]
			r.queue = r.queue[1:]
			u := r.units[id]
			u.state = unitRunning
			return r, u, true
		}
		c.cond.Wait()
	}
}

// complete records a finished unit; late or repeated completions (a
// unit already settled by another worker after a reassignment) are
// counted and dropped.
func (c *Coordinator) complete(r *runState, u *unit, res *unitResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run != r || u.state != unitRunning {
		c.stats.Duplicates++
		c.publish()
		return
	}
	u.state = unitDone
	for _, i := range u.indices {
		r.results[i] = res.Result
	}
	r.remaining--
	c.stats.UnitsDone++
	c.stats.Executed++
	if c.cfg.Cache != nil {
		c.cfg.Cache.Put(u.key, res.Result)
	}
	if r.remaining == 0 {
		c.finishLocked(r, nil)
	}
	c.publish()
}

// fail returns a dispatched unit to the queue after a worker failure,
// failing the whole run once the unit's retry budget is exhausted.
func (c *Coordinator) fail(r *runState, u *unit, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run != r || u.state != unitRunning {
		return
	}
	if u.retries >= c.maxRetries() {
		c.finishLocked(r, fmt.Errorf("orchestrate: unit %d (%s) failed after %d attempts: %w",
			u.id, u.key, u.retries+1, cause))
		return
	}
	u.retries++
	u.state = unitPending
	r.queue = append(r.queue, u.id)
	c.stats.Reassigned++
	c.publish()
	c.cond.Broadcast()
}

// Serve accepts worker connections until the listener closes.
func (c *Coordinator) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go c.HandleWorker(conn)
	}
}

// HandleWorker serves one worker connection: read its hello, then
// dispatch units to it until it fails or the coordinator closes. Any
// connection error fails the worker's in-flight unit (triggering
// reassignment) and drops the connection; the rest of the sweep
// continues on the surviving workers.
func (c *Coordinator) HandleWorker(conn net.Conn) error {
	defer conn.Close()
	hello, err := recvMsg(conn)
	if err != nil {
		return fmt.Errorf("orchestrate: worker hello: %w", err)
	}
	if hello.Type != msgHello {
		return fmt.Errorf("orchestrate: expected hello, got %q", hello.Type)
	}
	c.mu.Lock()
	c.workers++
	c.stats.Workers = c.workers
	c.publish()
	c.cond.Broadcast() // wake WaitWorkers
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.workers--
		c.stats.Workers = c.workers
		c.publish()
		c.mu.Unlock()
	}()
	for {
		r, u, ok := c.next()
		if !ok {
			return nil
		}
		if err := c.dispatch(conn, r, u); err != nil {
			c.fail(r, u, err)
			return err
		}
	}
}

// dispatch sends one unit to a worker and waits for its result under
// the unit timeout. A nil return means the unit settled (completed, or
// failed cleanly with an error message and already requeued); a
// non-nil return means the connection is unusable.
func (c *Coordinator) dispatch(conn net.Conn, r *runState, u *unit) error {
	if err := sendMsg(conn, message{Type: msgUnit, Unit: &workUnit{ID: u.id, Key: u.key, Point: u.pt}}); err != nil {
		return err
	}
	if d := c.unitTimeout(); d > 0 {
		// The unit deadline is a liveness watchdog for real crashed or
		// wedged workers, not simulation input — results remain a pure
		// function of the parameters no matter when the clock fires.
		//lint:wallclock-ok liveness watchdog on a worker connection; never observable in results
		if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer conn.SetReadDeadline(time.Time{})
	}
	m, err := recvMsg(conn)
	if err != nil {
		return err
	}
	switch m.Type {
	case msgResult:
		res := m.Result
		if res.ID != u.id || res.Key != u.key {
			return fmt.Errorf("orchestrate: result for unit %d (%s), expected %d (%s)", res.ID, res.Key, u.id, u.key)
		}
		if err := res.Result.Validate(); err != nil {
			return fmt.Errorf("orchestrate: unit %d result invalid: %w", u.id, err)
		}
		if res.Result.Family != u.pt.Family {
			return fmt.Errorf("orchestrate: unit %d result family %q, expected %q", u.id, res.Result.Family, u.pt.Family)
		}
		c.complete(r, u, res)
		return nil
	case msgError:
		// The worker executed the unit and reported a clean failure;
		// the connection itself is fine, so requeue and keep serving.
		c.fail(r, u, errors.New(m.Error))
		return nil
	default:
		return fmt.Errorf("orchestrate: unexpected %q while awaiting unit %d", m.Type, u.id)
	}
}
