// Package node implements a live GUESS peer speaking the wire protocol
// over UDP (or any other Transport): the deployable counterpart of the
// simulator in internal/core.
//
// A Node maintains the paper's link cache with periodic pings, answers
// pings and queries from other peers (with the introduction protocol
// and policy-driven pong construction), enforces a probe-rate capacity
// limit with Busy refusals, and executes its own queries by serial
// unicast probing with a per-query query cache — the complete GUESS
// loop from Section 2 of the paper, reusing the same cache and policy
// implementations the simulator is built on.
package node

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/wire"
)

// Config configures a live node. Zero fields take defaults (see
// Default).
type Config struct {
	// Files are the names this node shares; queries match by
	// case-insensitive substring.
	Files []string
	// CacheSize is the link cache capacity.
	CacheSize int
	// PingInterval is the cache-maintenance period.
	PingInterval time.Duration
	// ProbeTimeout is how long a probe waits for a reply before the
	// attempt is abandoned (the GUESS spec's 0.2 s pacing). With
	// AdaptiveTimeout it is the initial value and the anchor of the
	// clamp range.
	ProbeTimeout time.Duration
	// MaxProbeAttempts is how many times one probe (ping or query) is
	// transmitted before its target is presumed dead: 1 is the
	// single-shot baseline; larger values retry with exponential
	// backoff between attempts. Default 3.
	MaxProbeAttempts int
	// RetryBackoff is the pause before the first retransmission; it
	// doubles with each further attempt, capped at the larger of 1s
	// and RetryBackoff.
	RetryBackoff time.Duration
	// AdaptiveTimeout, when true, replaces the fixed per-attempt
	// deadline with one derived from an EWMA of observed RTTs
	// (Jacobson/Karels: srtt + 4*rttvar), clamped to
	// [ProbeTimeout/8, 2*ProbeTimeout].
	AdaptiveTimeout bool
	// BusyBackoff, when positive, demotes a peer answering Busy
	// instead of evicting it: the peer is suppressed from probing for
	// BusyBackoff, then 2*BusyBackoff after a second consecutive
	// Busy, and evicted at the third. Zero keeps the paper's
	// no-backoff default: evict on the first Busy.
	BusyBackoff time.Duration
	// BreakerThreshold enables the client-path circuit breaker: after
	// this many consecutive probe timeouts a peer's breaker opens
	// (suppressed from selection) instead of the peer being evicted
	// outright; after BreakerCooldown one half-open trial probe decides
	// between closing the breaker and eviction. Zero keeps the paper's
	// default: evict after the first fully timed-out probe.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker suppresses its peer
	// before the half-open trial. Default 2s.
	BreakerCooldown time.Duration
	// PongSize is the number of addresses per pong.
	PongSize int
	// IntroProb is the introduction-protocol probability.
	IntroProb float64
	// MaxProbesPerSecond is the Busy-refusal capacity (0 = unlimited).
	MaxProbesPerSecond int
	// Admission selects the overload controller enforcing
	// MaxProbesPerSecond: AdmissionFlat (default) is the paper's flat
	// window; AdmissionFair sheds the heaviest requesters first with
	// tiered degradation (see AdmissionMode).
	Admission AdmissionMode
	// AdmissionWindow is the fair controller's accounting window
	// (capacity scales with it). Default 1s; the flat window is always
	// exactly one second regardless.
	AdmissionWindow time.Duration
	// DrainTimeout bounds the graceful drain on Close: for up to this
	// long the node keeps reading, answering late-arriving probes with
	// Busy and flushing in-flight replies, before the socket closes.
	// Zero (the default) closes immediately.
	DrainTimeout time.Duration
	// SnapshotPath, when set, enables crash recovery: the link cache
	// is periodically serialized there (atomic, checksummed) and
	// restored on startup, with restored entries verified by ping
	// before any policy can see them.
	SnapshotPath string
	// SnapshotInterval is the period between snapshots. Default 30s.
	SnapshotInterval time.Duration

	// Policies, as in the paper.
	QueryProbe, QueryPong, PingProbe, PingPong policy.Selection
	CacheReplacement                           policy.Eviction

	// Seed makes the node's random choices reproducible (0 = 1).
	Seed uint64
	// Logf, when non-nil, receives debug logging.
	Logf func(format string, args ...any)

	// Metrics, when non-nil, receives the node's guess_node_* metric
	// set (counters, RTT histogram, cache gauge) for exposition; the
	// Stats snapshot reads the same instruments. Nil keeps the metrics
	// in a private, unexposed registry.
	Metrics *obs.Registry
}

// Default returns a workable live-node configuration mirroring the
// paper's protocol defaults.
func Default() Config {
	return Config{
		CacheSize:        100,
		PingInterval:     30 * time.Second,
		ProbeTimeout:     200 * time.Millisecond,
		MaxProbeAttempts: 3,
		RetryBackoff:     50 * time.Millisecond,
		BreakerCooldown:  2 * time.Second,
		AdmissionWindow:  time.Second,
		SnapshotInterval: 30 * time.Second,
		PongSize:         5,
		IntroProb:        0.1,
		QueryProbe:       policy.SelRandom,
		QueryPong:        policy.SelRandom,
		PingProbe:        policy.SelRandom,
		PingPong:         policy.SelRandom,
		CacheReplacement: policy.EvRandom,
		Seed:             1,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := Default()
	if c.CacheSize == 0 {
		c.CacheSize = d.CacheSize
	}
	if c.PingInterval == 0 {
		c.PingInterval = d.PingInterval
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	if c.MaxProbeAttempts == 0 {
		c.MaxProbeAttempts = d.MaxProbeAttempts
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	if c.AdmissionWindow == 0 {
		c.AdmissionWindow = d.AdmissionWindow
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = d.SnapshotInterval
	}
	if c.PongSize == 0 {
		c.PongSize = d.PongSize
	}
	if c.IntroProb == 0 {
		c.IntroProb = d.IntroProb
	}
	if c.QueryProbe == 0 {
		c.QueryProbe = d.QueryProbe
	}
	if c.QueryPong == 0 {
		c.QueryPong = d.QueryPong
	}
	if c.PingProbe == 0 {
		c.PingProbe = d.PingProbe
	}
	if c.PingPong == 0 {
		c.PingPong = d.PingPong
	}
	if c.CacheReplacement == 0 {
		c.CacheReplacement = d.CacheReplacement
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	switch {
	case c.CacheSize < 1:
		return fmt.Errorf("node: CacheSize must be >= 1, got %d", c.CacheSize)
	case c.PingInterval <= 0:
		return fmt.Errorf("node: PingInterval must be positive")
	case c.ProbeTimeout <= 0:
		return fmt.Errorf("node: ProbeTimeout must be positive")
	case c.MaxProbeAttempts < 1 || c.MaxProbeAttempts > 16:
		return fmt.Errorf("node: MaxProbeAttempts %d outside [1,16]", c.MaxProbeAttempts)
	case c.RetryBackoff <= 0:
		return fmt.Errorf("node: RetryBackoff must be positive")
	case c.BusyBackoff < 0:
		return fmt.Errorf("node: BusyBackoff must be non-negative")
	case c.BreakerThreshold < 0 || c.BreakerThreshold > 64:
		return fmt.Errorf("node: BreakerThreshold %d outside [0,64]", c.BreakerThreshold)
	case c.BreakerCooldown <= 0:
		return fmt.Errorf("node: BreakerCooldown must be positive")
	case !c.Admission.Valid():
		return fmt.Errorf("node: invalid admission mode %d", c.Admission)
	case c.AdmissionWindow <= 0:
		return fmt.Errorf("node: AdmissionWindow must be positive")
	case c.DrainTimeout < 0:
		return fmt.Errorf("node: DrainTimeout must be non-negative")
	case c.SnapshotInterval <= 0:
		return fmt.Errorf("node: SnapshotInterval must be positive")
	case c.PongSize < 0 || c.PongSize > wire.MaxPongEntries:
		return fmt.Errorf("node: PongSize %d outside [0, %d]", c.PongSize, wire.MaxPongEntries)
	case c.MaxProbesPerSecond < 0:
		return fmt.Errorf("node: MaxProbesPerSecond must be non-negative, got %d", c.MaxProbesPerSecond)
	case c.IntroProb < 0 || c.IntroProb > 1:
		return fmt.Errorf("node: IntroProb %v outside [0,1]", c.IntroProb)
	case !c.QueryProbe.Valid() || !c.QueryPong.Valid() || !c.PingProbe.Valid() || !c.PingPong.Valid():
		return fmt.Errorf("node: invalid selection policy")
	case !c.CacheReplacement.Valid():
		return fmt.Errorf("node: invalid cache replacement policy")
	}
	return nil
}

// Stats counts a node's protocol activity. Fields are cumulative.
type Stats struct {
	PingsSent, PongsReceived     int64
	PingsReceived, QueriesServed int64
	ProbesRefused                int64
	DeadEvictions                int64
	MalformedDropped             int64
	// Retries counts probe retransmissions (attempts beyond the first).
	Retries int64
	// BusyBackoffs counts Busy replies absorbed by demotion instead of
	// eviction (only with BusyBackoff > 0).
	BusyBackoffs int64
	// LateReplies counts replies that arrived after their probe had
	// already timed out or completed (or were never solicited).
	LateReplies int64
	// DupReplies counts redundant copies of a reply already consumed
	// by its probe (duplicating networks).
	DupReplies int64
	// ShedPings/ShedQueries/ShedDrain break ProbesRefused down by
	// degradation tier under fair admission and drain (flat-window
	// refusals appear only in ProbesRefused).
	ShedPings, ShedQueries, ShedDrain int64
	// CacheWriteSkips counts cache writes skipped under admission
	// pressure.
	CacheWriteSkips int64
	// BreakerOpens counts circuit breakers tripped by consecutive
	// probe timeouts.
	BreakerOpens int64
	// SnapshotWrites/SnapshotRestored/SnapshotVerified account for the
	// crash-recovery snapshot lifecycle.
	SnapshotWrites, SnapshotRestored, SnapshotVerified int64
}

// Hit is one query result.
type Hit struct {
	// From is the responding peer.
	From netip.AddrPort
	// Name is the matching file name.
	Name string
}

// QueryStats reports one query's cost. Probes (distinct targets tried),
// Good, Dead and Refused are the counts of its policy.QueryCache, the
// record that holds the simulator's query counts too; Retries counts
// extra transmissions beyond each target's first.
type QueryStats struct {
	Probes  int
	Good    int
	Dead    int
	Refused int
	Retries int
}

// Transport is the datagram socket a node runs on, with peers named
// by netip.AddrPort so that no address is boxed per packet.
// *net.UDPConn and *memnet.Conn implement it.
type Transport interface {
	ReadFromUDPAddrPort(b []byte) (n int, from netip.AddrPort, err error)
	WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error)
	LocalAddr() net.Addr
	Close() error
}

// Node is a live GUESS peer. Create with Listen or New; always Close.
type Node struct {
	cfg   Config
	conn  Transport
	start time.Time
	// self is conn's bound address, resolved once in New, and selfID
	// the PeerID idFor gives it.
	self   netip.AddrPort
	selfID cache.PeerID
	// filesLower is cfg.Files lower-cased, index for index: what a
	// served query's keyword is matched against.
	filesLower []string

	mu   sync.Mutex
	rng  *simrng.RNG
	link *cache.LinkCache
	// ids numbers the addresses the node refers to (see idFor).
	ids *addrTable
	// pick is the selection scratch pongs are built with.
	pick policy.Scratch
	// scratches are idle query candidate sets (at most maxScratches);
	// queries are the ones in use, whose candidates keep their IDs
	// through a sweep.
	scratches, queries []*queryScratch
	// adm decides which inbound probes are served (flat window or fair
	// SFB-style shedding); guarded by mu.
	adm admitter
	// keySalt salts requester hashing for the fair admitter.
	keySalt uint64
	// health owns per-peer demotion and circuit-breaker state; guarded
	// by mu.
	health *peerHealth
	// suspects are snapshot-restored entries awaiting verification;
	// suspectsLeft counts the ones still unverified (healthz surfaces
	// it). Only touched before the verifier starts and under mu after.
	suspects     []snapEntry
	suspectsLeft int

	// pendingMu guards pending, the flights in it (see flight), the
	// IDs of recently answered ones, and the RTT estimator behind
	// adaptive timeouts (seconds; srtt == 0 means no sample yet).
	pendingMu    sync.Mutex
	pending      map[uint64]*flight
	answered     idRing
	srtt, rttvar float64

	msgID atomic.Uint64

	// lastInbound is the unix-nano arrival time of the most recent
	// datagram; the drain loop uses it to finish early once the
	// network goes quiet.
	lastInbound atomic.Int64

	// met backs both the Stats snapshot and the Config.Metrics
	// registry; always non-nil.
	met *obs.NodeMetrics

	closeOnce sync.Once
	// closing is closed when Close begins: the node stops admitting
	// work (client calls abort, inbound probes get Busy) but the
	// socket stays open so in-flight replies still flush.
	closing chan struct{}
	// closed is closed when the drain window ends and the socket is
	// about to close; send refuses after it.
	closed chan struct{}
	wg     sync.WaitGroup
}

// Listen binds a UDP socket (e.g. "127.0.0.1:0") and starts the node.
func Listen(addr string, cfg Config) (*Node, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: listen: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("node: listen: %w", err)
	}
	n, err := New(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return n, nil
}

// New starts a node on an existing transport. The node owns conn and
// closes it on Close (but not when New fails).
func New(conn Transport, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	local, err := netip.ParseAddrPort(conn.LocalAddr().String())
	if err != nil {
		return nil, fmt.Errorf("node: transport's local address: %w", err)
	}
	n := &Node{
		cfg:        cfg,
		conn:       conn,
		self:       unmap(local),
		start:      time.Now(),
		filesLower: make([]string, len(cfg.Files)),
		rng:        simrng.New(cfg.Seed),
		link:       cache.NewLinkCache(cfg.CacheSize),
		ids:        newAddrTable(sweepFloor*cfg.CacheSize, math.MaxInt32),
		keySalt:    saltFor(cfg.Seed),
		health:     newPeerHealth(cfg),
		pending:    make(map[uint64]*flight),
		met:        obs.NewNodeMetrics(cfg.Metrics),
		closing:    make(chan struct{}),
		closed:     make(chan struct{}),
	}
	n.selfID = n.idFor(n.self)
	for i, name := range cfg.Files {
		n.filesLower[i] = strings.ToLower(name)
	}
	switch cfg.Admission {
	case AdmissionFair:
		n.adm = newFairAdmitter(cfg.MaxProbesPerSecond, cfg.AdmissionWindow)
	default:
		n.adm = &flatAdmitter{capacity: cfg.MaxProbesPerSecond}
	}
	n.msgID.Store(cfg.Seed<<32 | 1)
	if cfg.SnapshotPath != "" {
		n.restoreSnapshot()
	}
	n.wg.Add(2)
	//lint:goroexit-ok Close unblocks the read: it closes n.conn after close(n.closed), and serveLoop exits on the read error
	go n.serveLoop()
	go n.pingLoop()
	if cfg.SnapshotPath != "" {
		n.wg.Add(1)
		go n.snapshotLoop()
		if len(n.suspects) > 0 {
			n.suspectsLeft = len(n.suspects)
			n.wg.Add(1)
			go n.verifySuspects(n.suspects)
		}
	}
	return n, nil
}

// Addr returns the node's bound address, in the form the node sees a
// peer's address in when that peer writes to it: an IPv4 address is
// never left in its IPv4-mapped IPv6 form.
func (n *Node) Addr() netip.AddrPort { return n.self }

// unmap strips the IPv4-mapped IPv6 form a dual-stack socket reports
// IPv4 peers in, so one peer has one address whichever socket saw it.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Close stops the node. With DrainTimeout > 0 it drains first: the
// node stops admitting work (client calls abort, new probes get Busy)
// but keeps the socket open so in-flight probes already being served
// can flush their replies, until the network goes quiet or the drain
// deadline passes. A final snapshot is written if snapshots are
// enabled. Close is idempotent and safe to call concurrently.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closing)
		n.met.Draining.Set(1)
		n.drain()
		if n.cfg.SnapshotPath != "" {
			n.writeSnapshot()
		}
		close(n.closed)
		n.conn.Close()
	})
	n.wg.Wait()
	return nil
}

// drain holds the socket open for up to DrainTimeout, exiting early
// once no datagram has arrived for a short grace period.
func (n *Node) drain() {
	d := n.cfg.DrainTimeout
	if d <= 0 {
		return
	}
	grace := d / 4
	if grace < 10*time.Millisecond {
		grace = 10 * time.Millisecond
	}
	if grace > 250*time.Millisecond {
		grace = 250 * time.Millisecond
	}
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		last := time.Unix(0, n.lastInbound.Load())
		if last.Before(start) {
			last = start
		}
		if time.Since(last) >= grace {
			return
		}
		time.Sleep(grace / 4)
	}
}

// Draining reports whether Close has begun.
func (n *Node) Draining() bool {
	select {
	case <-n.closing:
		return true
	default:
		return false
	}
}

// Uptime is the wall-clock time since the node started.
func (n *Node) Uptime() time.Duration { return time.Since(n.start) }

// Suspects returns how many snapshot-restored entries still await
// ping verification (0 once recovery settles).
func (n *Node) Suspects() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.suspectsLeft
}

// Stats returns a snapshot of the node's counters. The same
// instruments feed the Config.Metrics registry, so Stats and a
// metrics scrape always agree.
func (n *Node) Stats() Stats {
	return Stats{
		PingsSent:        int64(n.met.PingsSent.Value()),
		PongsReceived:    int64(n.met.PongsReceived.Value()),
		PingsReceived:    int64(n.met.PingsReceived.Value()),
		QueriesServed:    int64(n.met.QueriesServed.Value()),
		ProbesRefused:    int64(n.met.ProbesRefused.Value()),
		DeadEvictions:    int64(n.met.DeadEvictions.Value()),
		MalformedDropped: int64(n.met.MalformedDropped.Value()),
		Retries:          int64(n.met.Retries.Value()),
		BusyBackoffs:     int64(n.met.BusyBackoffs.Value()),
		LateReplies:      int64(n.met.LateReplies.Value()),
		DupReplies:       int64(n.met.DupReplies.Value()),
		ShedPings:        int64(n.met.ShedPings.Value()),
		ShedQueries:      int64(n.met.ShedQueries.Value()),
		ShedDrain:        int64(n.met.ShedDrain.Value()),
		CacheWriteSkips:  int64(n.met.CacheWriteSkips.Value()),
		BreakerOpens:     int64(n.met.BreakerOpens.Value()),
		SnapshotWrites:   int64(n.met.SnapshotWrites.Value()),
		SnapshotRestored: int64(n.met.SnapshotRestored.Value()),
		SnapshotVerified: int64(n.met.SnapshotVerified.Value()),
	}
}

// NumFiles returns the number of files the node shares.
func (n *Node) NumFiles() int { return len(n.cfg.Files) }

// CacheLen returns the current link cache occupancy.
func (n *Node) CacheLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.link.Len()
}

// CacheAddrs returns the addresses currently in the link cache.
func (n *Node) CacheAddrs() []netip.AddrPort {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]netip.AddrPort, 0, n.link.Len())
	for _, e := range n.link.Entries() {
		out = append(out, n.ids.addrs[e.Addr])
	}
	return out
}

// AddPeer seeds the link cache with a known peer (bootstrap).
func (n *Node) AddPeer(addr netip.AddrPort, numFiles uint32) {
	if !addr.IsValid() {
		n.logf("peer %v not added: invalid address", addr)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.idFor(addr)
	if id == 0 {
		n.logf("peer %v not added: address table full", addr)
		return
	}
	n.insertLocked(cache.Entry{
		Addr:     id,
		TS:       n.now(),
		NumFiles: int32(clampFiles(numFiles)),
		Direct:   true,
	})
	n.syncCacheGauge()
}

// syncCacheGauge refreshes the link-cache occupancy gauge after a
// mutation; callers hold n.mu.
func (n *Node) syncCacheGauge() {
	n.met.CacheEntries.Set(float64(n.link.Len()))
}

// syncBreakerGauge refreshes the open-breaker gauge; callers hold n.mu.
func (n *Node) syncBreakerGauge() {
	n.met.BreakerOpen.Set(float64(n.health.open()))
}

// now is seconds since node start (the TS clock).
func (n *Node) now() float64 { return n.clock(time.Now()) }

// clock is t on the TS clock.
func (n *Node) clock(t time.Time) float64 { return t.Sub(n.start).Seconds() }

// idFor maps an address to its PeerID, numbering it on first sight;
// callers hold n.mu. An ID is stable for as long as something refers
// to it: numbering a new address may sweep the table first (see
// sweepIDs), which frees every ID that neither the node itself, the
// link cache, peer health nor a query in progress holds. So an ID must
// not be kept across an unlock unless one of those holds it; look the
// address up again instead (lookupID). When maxID addresses are
// numbered and none is free, a new one gets 0, which names no address
// and is never in the link cache: the caller must not cache it, and
// touching or forgetting it is a no-op.
func (n *Node) idFor(addr netip.AddrPort) cache.PeerID {
	addr = unmap(addr)
	if id := n.ids.lookup(addr); id != 0 {
		return id
	}
	if n.ids.due() {
		n.sweepIDs()
	}
	return n.ids.add(addr)
}

// lookupID is addr's PeerID, 0 if it is not numbered; callers hold n.mu.
func (n *Node) lookupID(addr netip.AddrPort) cache.PeerID {
	return n.ids.lookup(unmap(addr))
}

// sweepFloor times CacheSize is how many addresses a node numbers
// before its first sweep: above what a cache's worth of peers, their
// health state and a few queries' candidates refer to at once, so a
// node on a network no larger than that never sweeps.
const sweepFloor = 4

// sweepIDs frees the IDs nothing refers to; callers hold n.mu.
func (n *Node) sweepIDs() {
	keep := make([]cache.PeerID, 0, 1+n.link.Len()+n.health.len())
	keep = append(keep, n.selfID)
	for _, e := range n.link.Entries() {
		keep = append(keep, e.Addr)
	}
	keep = n.health.appendIDs(keep)
	//lint:lockguard-ok sweepIDs runs inside idFor, whose callers hold n.mu
	for _, s := range n.queries {
		keep = s.qc.AppendSeen(keep)
	}
	n.ids.sweep(keep)
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func clampFiles(v uint32) uint32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return v
}

// errClosed reports a send attempted after Close.
var errClosed = errors.New("node: closed")

// sendBufs recycles encode buffers across every node in the process.
// Each is wire.MaxPacket bytes for good: a message that would outgrow
// it fails to encode, and whatever append allocated for it is dropped.
var sendBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, wire.MaxPacket)
	return &b
}}

// send encodes and transmits a message. It does not retain m.
func (n *Node) send(m wire.Message, to netip.AddrPort) error {
	buf := sendBufs.Get().(*[]byte)
	defer sendBufs.Put(buf)
	pkt, err := wire.AppendEncode((*buf)[:0], m)
	if err != nil {
		return err
	}
	return n.write(pkt, to)
}

// write transmits an encoded message, unless the node has closed.
func (n *Node) write(pkt []byte, to netip.AddrPort) error {
	select {
	case <-n.closed:
		return errClosed
	default:
	}
	_, err := n.conn.WriteToUDPAddrPort(pkt, unmap(to))
	return err
}

// matches reports whether lowerName contains lowerKeyword (both already
// lower-cased; an empty keyword matches nothing).
func matches(lowerName, lowerKeyword string) bool {
	return lowerKeyword != "" && strings.Contains(lowerName, lowerKeyword)
}
