package cluster

// The sync client: one per node, coupling the node's fair admitter to
// the shed-state service.
//
// On a jittered interval the client drains the node's sketch delta,
// pushes it (with a monotonic sequence number), and installs the
// aggregate the service replies with. Every failure mode degrades to
// local-only shedding, never an outage: I/O errors close the
// connection and the next tick redials; an aggregate older than
// StaleAfter (service slow, partitioned, or down) clears the cluster
// view; a service still warming after a cold start is not trusted; a
// stale epoch is refused. Re-convergence is idempotent — a delta
// whose ack was lost is re-sent under the same sequence number, which
// the service deduplicates, so demand is never double-counted. New
// demand accrued while disconnected merges into one unsent delta that
// is assigned its sequence number only when first transmitted (a
// possibly-applied in-flight delta is never merged with new demand,
// which would smuggle the new counts under a deduplicated sequence).

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simrng"
	"repro/node"
)

// SyncTarget is the node-side surface the client drives. *node.Node
// implements it; tests substitute fakes.
type SyncTarget interface {
	// TakeAdmissionDelta drains demand counted since the last drain.
	TakeAdmissionDelta() (node.AdmissionDelta, bool)
	// SetClusterAggregate installs the cluster-merged demand view.
	SetClusterAggregate(node.AdmissionAggregate)
	// ClearClusterAggregate returns the node to local-only shedding.
	ClearClusterAggregate()
	// SetAdmissionSalt adopts a rotated salt, forgetting all counted
	// demand.
	SetAdmissionSalt(salt uint64)
}

// ClientConfig configures a sync client. Zero fields take defaults.
type ClientConfig struct {
	// Name identifies the node to the service; it must be stable
	// across restarts of the same node (sequence dedupe is keyed by
	// it) and unique within the cluster. Required.
	Name string
	// Dial opens a connection to the service (memnet stream, TCP, …).
	// Required.
	Dial func() (net.Conn, error)
	// Interval is the base sync period. Default 1s.
	Interval time.Duration
	// Jitter spreads ticks uniformly over Interval±Jitter·Interval so
	// a cluster's pushes do not phase-lock. Default 0.2; clamped to
	// [0, 0.9].
	Jitter float64
	// Timeout bounds one sync round's I/O on an open connection
	// (hello, push, reply). A slow service is indistinguishable from a
	// dead one past this deadline. Default Interval/2. Dial takes no
	// deadline, so it must bound its own connect: a Dial that blocks
	// holds the sync loop, and with it the staleness check.
	Timeout time.Duration
	// StaleAfter is the fallback deadline: with no aggregate
	// installed for this long, the cluster view is cleared and the
	// node sheds on local state only. Default 3×Interval.
	StaleAfter time.Duration
	// Nonce distinguishes this client instance in the service's
	// sequence records; a restarted node must use a fresh one. 0
	// draws one from the wall clock.
	Nonce uint64
	// Seed makes the jitter sequence reproducible (0 = 1).
	Seed uint64
	// Metrics, when non-nil, receives the guess_node_cluster_* set.
	Metrics *obs.Registry
	// Logf, when non-nil, receives debug logging.
	Logf func(format string, args ...any)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter > 0.9 {
		c.Jitter = 0.9
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.Interval
	}
	if c.Nonce == 0 {
		c.Nonce = uint64(time.Now().UnixNano()) | 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClientStatus is a point-in-time view of the sync state, surfaced by
// /healthz.
type ClientStatus struct {
	// Fallback reports local-only shedding (no trusted aggregate).
	Fallback bool
	// LastPull is when an aggregate was last installed (zero: never).
	LastPull time.Time
	// Epoch and Salt are the salt epoch the node currently hashes
	// under (0 until the first contact with the service).
	Epoch int64
	Salt  uint64
}

// SyncClient keeps one node converged with the shed-state service.
// Create with NewSyncClient; always Close.
type SyncClient struct {
	cfg    ClientConfig
	target SyncTarget
	met    *obs.ClusterMetrics
	rng    *simrng.RNG

	mu   sync.Mutex
	conn net.Conn
	// epoch/salt: the service epoch last adopted (0 = none yet).
	epoch int64
	salt  uint64
	// seq numbers pushes; pendingSeq/pendingDelta is the in-flight
	// (possibly applied, unacked) push re-sent verbatim until acked;
	// unsent accrues demand not yet assigned a sequence number.
	seq          uint64
	pendingSeq   uint64
	pendingDelta node.AdmissionDelta
	unsent       node.AdmissionDelta
	haveUnsent   bool
	// lastPull is when an aggregate was last installed; fallback is
	// the current shedding mode (starts true: a node has no cluster
	// view until its first pull).
	lastPull time.Time
	fallback bool

	closing   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewSyncClient starts a sync client for target.
func NewSyncClient(target SyncTarget, cfg ClientConfig) (*SyncClient, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, errors.New("cluster: sync client needs a Name")
	}
	if len(cfg.Name) > maxNodeName {
		return nil, errors.New("cluster: sync client Name too long")
	}
	if cfg.Dial == nil {
		return nil, errors.New("cluster: sync client needs a Dial function")
	}
	if target == nil {
		return nil, errors.New("cluster: sync client needs a target")
	}
	c := &SyncClient{
		cfg:      cfg,
		target:   target,
		met:      obs.NewClusterMetrics(cfg.Metrics),
		rng:      simrng.New(cfg.Seed).Stream("cluster-sync:" + cfg.Name),
		fallback: true,
		closing:  make(chan struct{}),
	}
	c.met.Fallback.Set(1)
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Status returns the current sync state.
func (c *SyncClient) Status() ClientStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStatus{
		Fallback: c.fallback,
		LastPull: c.lastPull,
		Epoch:    c.epoch,
		Salt:     c.salt,
	}
}

// Close stops the client. The node keeps running (local-only
// shedding); Close clears the installed aggregate so a stale cluster
// view cannot outlive its updates.
func (c *SyncClient) Close() error {
	c.closeOnce.Do(func() {
		close(c.closing)
	})
	c.wg.Wait()
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()
	c.target.ClearClusterAggregate()
	return nil
}

func (c *SyncClient) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// loop runs sync rounds on the jittered interval until Close. The
// first round runs immediately so a fresh cluster converges without
// waiting out a full interval.
func (c *SyncClient) loop() {
	defer c.wg.Done()
	for {
		c.syncOnce()
		d := time.Duration(float64(c.cfg.Interval) * (1 + c.cfg.Jitter*(2*c.rng.Float64()-1)))
		select {
		case <-c.closing:
			return
		case <-time.After(d):
		}
	}
}

// syncOnce runs one sync round: drain the node's delta, (re)establish
// the connection, push pending and fresh demand, pull the aggregate,
// and re-evaluate staleness.
func (c *SyncClient) syncOnce() {
	if d, ok := c.target.TakeAdmissionDelta(); ok {
		c.mergeUnsent(d)
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	err := c.round(deadline)
	if err != nil {
		c.met.SyncErrors.Inc()
		c.logf("cluster sync %s: %v", c.cfg.Name, err)
		c.dropConn()
	} else {
		c.met.Syncs.Inc()
	}
	// Deadline check: however the round went, an aggregate that has
	// not refreshed within StaleAfter cannot be trusted — the service
	// may be feeding us ever-staler demand over a half-alive link.
	c.mu.Lock()
	stale := c.lastPull.IsZero() || time.Since(c.lastPull) > c.cfg.StaleAfter
	c.mu.Unlock()
	if stale {
		c.enterFallback()
	}
}

// round performs the I/O of one sync: hello on a fresh connection,
// then pending re-send, fresh push, or a heartbeat pull.
func (c *SyncClient) round(deadline time.Time) error {
	conn, err := c.ensureConn(deadline)
	if err != nil {
		return err
	}
	conn.SetDeadline(deadline)
	pushed := false
	// Re-send the possibly-applied in-flight delta first, verbatim:
	// if the previous ack was lost the service deduplicates by
	// sequence number, so this can never double-count.
	if seq, d, ok := c.takePending(); ok {
		if err := c.exchange(conn, syncMsg{Type: syncPush, Seq: seq, Epoch: c.curEpoch(), Delta: &d}); err != nil {
			return err
		}
		pushed = true
	}
	// Fresh demand gets a new sequence number at first transmission.
	if seq, d, ok := c.promoteUnsent(); ok {
		if err := c.exchange(conn, syncMsg{Type: syncPush, Seq: seq, Epoch: c.curEpoch(), Delta: &d}); err != nil {
			return err
		}
		pushed = true
	}
	if !pushed {
		// Heartbeat: nothing to push, still pull the aggregate.
		if err := c.exchange(conn, syncMsg{Type: syncPush, Seq: 0, Epoch: c.curEpoch()}); err != nil {
			return err
		}
	}
	return nil
}

// ensureConn returns the live connection, dialing and greeting the
// service if there is none.
func (c *SyncClient) ensureConn(deadline time.Time) (net.Conn, error) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(deadline)
	if err := writeSyncMsg(conn, syncMsg{Type: syncHello, Node: c.cfg.Name, Nonce: c.cfg.Nonce}); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := readSyncMsg(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
	c.handleReply(reply)
	return conn, nil
}

// exchange sends one push and processes the service's reply.
func (c *SyncClient) exchange(conn net.Conn, m syncMsg) error {
	if err := writeSyncMsg(conn, m); err != nil {
		return err
	}
	reply, err := readSyncMsg(conn)
	if err != nil {
		return err
	}
	c.handleReply(reply)
	return nil
}

// handleReply folds one service reply into the client state: acks,
// epoch adoption or stale-epoch refusal, warming, and aggregate
// installation.
func (c *SyncClient) handleReply(m syncMsg) {
	c.mu.Lock()
	// An ack (agg or reject) retires the in-flight delta: applied,
	// deduplicated, or — on reject — counted under a dead salt and
	// therefore meaningless.
	if m.AckSeq != 0 && m.AckSeq == c.pendingSeq {
		c.pendingSeq = 0
		c.pendingDelta = node.AdmissionDelta{}
	}
	switch {
	case m.Epoch > c.epoch:
		// The service rotated (or this is first contact): adopt. All
		// demand counted under the old salt — local sketches, unsent
		// and in-flight deltas — is meaningless under the new one.
		c.epoch = m.Epoch
		c.salt = m.Salt
		c.pendingSeq = 0
		c.pendingDelta = node.AdmissionDelta{}
		c.unsent = node.AdmissionDelta{}
		c.haveUnsent = false
		c.mu.Unlock()
		c.target.SetAdmissionSalt(m.Salt)
		c.met.EpochRotations.Inc()
		c.met.SaltEpoch.Set(float64(m.Epoch))
		c.logf("cluster sync %s: adopted epoch %d", c.cfg.Name, m.Epoch)
	case m.Epoch < c.epoch:
		// The service runs an older epoch than we adopted — it lost
		// state we still hash under. Refuse the aggregate; the
		// service rotates forward when it sees our pushes.
		c.mu.Unlock()
		c.met.StaleEpochs.Inc()
		c.enterFallback()
		return
	default:
		c.mu.Unlock()
	}
	if m.Type != syncAgg {
		return
	}
	if m.Warming {
		// The aggregate is too young to trust (service cold start or
		// fresh rotation); keep shedding on local state.
		c.enterFallback()
		return
	}
	c.target.SetClusterAggregate(*m.Agg)
	now := time.Now()
	c.mu.Lock()
	c.lastPull = now
	c.mu.Unlock()
	c.met.LastPullUnix.Set(float64(now.Unix()))
	c.leaveFallback()
}

// mergeUnsent folds freshly drained demand into the unsent delta
// (saturating).
func (c *SyncClient) mergeUnsent(d node.AdmissionDelta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := range d.Counts {
		for b, v := range d.Counts[l] {
			if v == 0 {
				continue
			}
			if c.unsent.Counts[l][b] > ^uint32(0)-v {
				c.unsent.Counts[l][b] = ^uint32(0)
			} else {
				c.unsent.Counts[l][b] += v
			}
		}
	}
	c.haveUnsent = true
}

// takePending returns the in-flight delta for re-sending, if any.
func (c *SyncClient) takePending() (uint64, node.AdmissionDelta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pendingSeq == 0 {
		return 0, node.AdmissionDelta{}, false
	}
	return c.pendingSeq, c.pendingDelta, true
}

// promoteUnsent assigns the unsent delta its sequence number and makes
// it the in-flight push.
func (c *SyncClient) promoteUnsent() (uint64, node.AdmissionDelta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.haveUnsent || c.pendingSeq != 0 {
		return 0, node.AdmissionDelta{}, false
	}
	c.seq++
	c.pendingSeq = c.seq
	c.pendingDelta = c.unsent
	c.unsent = node.AdmissionDelta{}
	c.haveUnsent = false
	return c.pendingSeq, c.pendingDelta, true
}

// curEpoch reads the adopted epoch.
func (c *SyncClient) curEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// dropConn closes the connection so the next round redials.
func (c *SyncClient) dropConn() {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// enterFallback switches to local-only shedding (idempotent).
func (c *SyncClient) enterFallback() {
	c.mu.Lock()
	was := c.fallback
	c.fallback = true
	c.mu.Unlock()
	if was {
		return
	}
	c.met.Fallbacks.Inc()
	c.met.Fallback.Set(1)
	c.target.ClearClusterAggregate()
	c.logf("cluster sync %s: falling back to local-only shedding", c.cfg.Name)
}

// leaveFallback records recovery to the cluster view (idempotent).
func (c *SyncClient) leaveFallback() {
	c.mu.Lock()
	was := c.fallback
	c.fallback = false
	c.mu.Unlock()
	if !was {
		return
	}
	c.met.Reconnects.Inc()
	c.met.Fallback.Set(0)
	c.logf("cluster sync %s: cluster view restored", c.cfg.Name)
}
