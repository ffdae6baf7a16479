// Package memnet provides an in-memory packet network implementing
// net.PacketConn, for testing live GUESS nodes without real sockets.
//
// Beyond basic delivery it is a scriptable network-condition simulator:
// every directed link (src→dst pair) can carry its own fault profile —
// loss probability, duplication, reordering, jitter drawn from seeded
// distributions, MTU-style truncation, and one-way blocking — so
// protocol robustness (dead-peer detection, retry/backoff, busy
// refusals, partition healing) is testable deterministically and
// without binding ports.
//
// Determinism: each directed link draws its fault decisions from its
// own RNG stream derived from the network seed and the link's
// addresses. A link's decision sequence therefore depends only on the
// order of packets sent over that link, not on goroutine interleaving
// across links, so chaos scenarios replay identically for identical
// seeds.
//
// Each endpoint holds at most 256 unread packets, in arrival order, in
// a ring under its mutex; each packet is a copy of the sender's bytes,
// in a pooled buffer that goes back to the pool once the reader has
// copied it out or the packet is dropped. A read takes the endpoint's
// lock once, and a reader that has to wait parks on a one-slot wake-up
// channel alone; a read deadline reaches it through that channel, from
// one timer per endpoint that is re-armed only when a deadline comes
// earlier than the one it is set for.
package memnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// LinkProfile describes the fault model for packets traversing one
// directed link (or, as the default profile, any link without an
// override). The zero value is a perfect link.
type LinkProfile struct {
	// Loss is the probability a packet is silently dropped.
	Loss float64
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter, when non-nil, samples extra per-packet delay in seconds
	// from the link's deterministic stream (negative samples clamp to
	// zero).
	Jitter dist.Sampler
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// ReorderProb is the probability a packet is held back by
	// ReorderDelay, letting packets sent after it overtake it.
	ReorderProb float64
	// ReorderDelay is the hold-back applied to reordered packets; when
	// zero, 4*Latency + 1ms is used.
	ReorderDelay time.Duration
	// MTU, when positive, truncates larger packets to MTU bytes,
	// modeling a link that mangles oversized datagrams.
	MTU int
	// Blocked drops every packet: a one-way partition that heals when
	// cleared.
	Blocked bool
}

// Stats counts packet fates across the whole network. Drop causes are
// disjoint per enqueued copy:
//
//	Sent + Duplicated == Delivered + Dropped + Blocked + QueueDrop
type Stats struct {
	// Sent counts packets entering the network (one per WriteTo).
	Sent int64
	// Delivered counts copies enqueued at their destination.
	Delivered int64
	// Dropped counts packets lost to the Loss probability.
	Dropped int64
	// Duplicated counts extra copies created by DupProb.
	Duplicated int64
	// Reordered counts packets held back by ReorderProb.
	Reordered int64
	// Truncated counts packets cut down to the link MTU.
	Truncated int64
	// Blocked counts packets dropped by blocked links, isolated or
	// missing endpoints.
	Blocked int64
	// QueueDrop counts copies dropped at a full or closed destination
	// queue (like a real NIC).
	QueueDrop int64
}

type linkKey struct{ from, to netip.AddrPort }

// Network is a switchboard connecting in-memory endpoints. Create with
// New, then Listen endpoints on it.
type Network struct {
	mu        sync.Mutex
	endpoints map[netip.AddrPort]*Conn
	nextPort  uint16
	rng       *simrng.RNG

	// def applies to links without an override in links.
	def      LinkProfile
	links    map[linkKey]LinkProfile
	rngs     map[linkKey]*simrng.RNG
	isolated map[netip.AddrPort]bool

	// streams registers stream listeners (see stream.go); packet
	// endpoints and stream listeners share the address space.
	streams map[netip.AddrPort]*StreamListener

	// met backs the Stats snapshot. Set once in New; its instruments
	// are atomic.
	met *obs.MemnetMetrics
	// inFlight counts copies waiting on a delay timer, not yet enqueued
	// or dropped; WaitIdle polls it. An undelayed copy lands inside the
	// WriteTo that sent it and is never counted.
	inFlight atomic.Int64
}

// New creates an empty network. seed drives every fault decision.
func New(seed uint64) *Network {
	return &Network{
		endpoints: make(map[netip.AddrPort]*Conn),
		nextPort:  10000,
		rng:       simrng.New(seed),
		links:     make(map[linkKey]LinkProfile),
		rngs:      make(map[linkKey]*simrng.RNG),
		isolated:  make(map[netip.AddrPort]bool),
		met:       obs.NewMemnetMetrics(nil),
	}
}

// SetLoss sets the default packet drop probability (0 = reliable).
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def.Loss = p
}

// SetLatency sets the default fixed one-way delivery delay.
func (n *Network) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def.Latency = d
}

// SetDefaultProfile replaces the profile applied to links without an
// override.
func (n *Network) SetDefaultProfile(p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = p
}

// SetLink overrides the profile for the directed link from→to.
func (n *Network) SetLink(from, to netip.AddrPort, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = p
}

// ClearLink removes a directed link override, restoring the default
// profile.
func (n *Network) ClearLink(from, to netip.AddrPort) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{from, to})
}

// Block installs a one-way partition on from→to (other profile fields
// of an existing override are preserved; absent one, the default
// profile's faults still apply when the link is later unblocked).
func (n *Network) Block(from, to netip.AddrPort) { n.setBlocked(from, to, true) }

// Unblock heals a one-way partition installed by Block.
func (n *Network) Unblock(from, to netip.AddrPort) { n.setBlocked(from, to, false) }

func (n *Network) setBlocked(from, to netip.AddrPort, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{from, to}
	p, ok := n.links[k]
	if !ok {
		p = n.def
	}
	p.Blocked = blocked
	n.links[k] = p
}

// Isolate cuts an endpoint off in both directions without closing it:
// packets to and from it vanish until Heal. Unlike Partition the
// endpoint stays registered, modeling a transient full partition.
func (n *Network) Isolate(addr netip.AddrPort) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[addr] = true
}

// Heal reverses Isolate.
func (n *Network) Heal(addr netip.AddrPort) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, addr)
}

// Partition removes an endpoint from the network without closing it:
// packets to it vanish and packets from it go nowhere, simulating a
// peer behind a permanently dead link. Use Isolate/Heal for partitions
// that recover.
func (n *Network) Partition(addr netip.AddrPort) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// Stats returns a snapshot of the network's packet accounting.
func (n *Network) Stats() Stats {
	met := n.met
	return Stats{
		Sent:       int64(met.Sent.Value()),
		Delivered:  int64(met.Delivered.Value()),
		Dropped:    int64(met.Dropped.Value()),
		Duplicated: int64(met.Duplicated.Value()),
		Reordered:  int64(met.Reordered.Value()),
		Truncated:  int64(met.Truncated.Value()),
		Blocked:    int64(met.Blocked.Value()),
		QueueDrop:  int64(met.QueueDrop.Value()),
	}
}

// Listen creates an endpoint with a fresh address on the network.
func (n *Network) Listen() *Conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := netip.AddrPortFrom(netip.MustParseAddr("10.99.0.1"), n.nextPort)
	n.nextPort++
	c := &Conn{
		net:  n,
		addr: addr,
		wake: make(chan struct{}, 1),
	}
	n.endpoints[addr] = c
	return c
}

// profileLocked resolves the effective profile for from→to; callers
// hold n.mu.
func (n *Network) profileLocked(from, to netip.AddrPort) LinkProfile {
	if p, ok := n.links[linkKey{from, to}]; ok {
		return p
	}
	return n.def
}

// rngLocked returns the deterministic decision stream for from→to,
// derived lazily from the network seed; callers hold n.mu.
func (n *Network) rngLocked(from, to netip.AddrPort) *simrng.RNG {
	k := linkKey{from, to}
	if r, ok := n.rngs[k]; ok {
		return r
	}
	r := n.rng.Stream("link:" + from.String() + ">" + to.String())
	n.rngs[k] = r
	return r
}

// deliver routes a packet, applying the link's fault profile. A link
// that cannot lose, duplicate, delay by a sampled amount or reorder
// never draws, so its decision stream is not even derived; a stream is
// a pure function of the network seed and the link's addresses, so
// deriving it at the link's first draw instead of its first packet
// changes no decision.
func (n *Network) deliver(from, to netip.AddrPort, data []byte) {
	n.mu.Lock()
	met := n.met
	met.Sent.Inc()
	dst, ok := n.endpoints[to]
	if !ok || n.isolated[from] || n.isolated[to] {
		n.mu.Unlock()
		met.Blocked.Inc()
		return
	}
	p := n.profileLocked(from, to)
	if p.Blocked {
		n.mu.Unlock()
		met.Blocked.Inc()
		return
	}
	copies := 1
	delay := p.Latency
	if p.Loss > 0 || p.DupProb > 0 || p.Jitter != nil || p.ReorderProb > 0 {
		r := n.rngLocked(from, to)
		if p.Loss > 0 && r.Bool(p.Loss) {
			n.mu.Unlock()
			met.Dropped.Inc()
			return
		}
		if p.DupProb > 0 && r.Bool(p.DupProb) {
			copies = 2
			met.Duplicated.Inc()
		}
		if p.Jitter != nil {
			if j := p.Jitter.Sample(r); j > 0 {
				delay += time.Duration(j * float64(time.Second))
			}
		}
		if p.ReorderProb > 0 && r.Bool(p.ReorderProb) {
			hold := p.ReorderDelay
			if hold <= 0 {
				hold = 4*p.Latency + time.Millisecond
			}
			delay += hold
			met.Reordered.Inc()
		}
	}
	if p.MTU > 0 && len(data) > p.MTU {
		data = data[:p.MTU]
		met.Truncated.Inc()
	}
	n.mu.Unlock()

	if delay <= 0 {
		for i := 0; i < copies; i++ {
			dst.enqueue(packet{from: from, data: copyPayload(data)})
		}
		return
	}
	n.inFlight.Add(int64(copies))
	for i := 0; i < copies; i++ {
		pkt := packet{from: from, data: copyPayload(data)}
		time.AfterFunc(delay, func() {
			defer n.inFlight.Add(-1)
			dst.enqueue(pkt)
		})
	}
}

// enqueue lands one copy at the tail of c's receive queue and wakes a
// reader, or drops it if c has closed or the queue is full (like a real
// NIC).
func (c *Conn) enqueue(pkt packet) {
	met := c.net.met
	c.mu.Lock()
	if c.closed.Load() || c.count == maxQueue {
		c.mu.Unlock()
		pkt.release()
		met.QueueDrop.Inc()
		return
	}
	if c.count == len(c.ring) {
		c.growLocked()
	}
	c.ring[(c.head+c.count)&(len(c.ring)-1)] = pkt
	c.count++
	c.signalLocked()
	c.mu.Unlock()
	met.Delivered.Inc()
}

// growLocked doubles the ring, which is full, keeping its packets in
// order from index 0; callers hold c.mu.
func (c *Conn) growLocked() {
	ring := make([]packet, max(minRing, 2*len(c.ring)))
	for i := 0; i < c.count; i++ {
		ring[i] = c.ring[(c.head+i)&(len(c.ring)-1)]
	}
	c.ring, c.head = ring, 0
}

// popLocked takes the packet at the head of the queue, which is not
// empty; callers hold c.mu.
func (c *Conn) popLocked() packet {
	pkt := c.ring[c.head]
	c.ring[c.head] = packet{}
	c.head = (c.head + 1) & (len(c.ring) - 1)
	c.count--
	return pkt
}

// signalLocked leaves a token in wake unless one is there already;
// callers hold c.mu and have seen c open. One token wakes one parked
// reader, so a reader that leaves packets behind signals again.
func (c *Conn) signalLocked() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// WaitIdle blocks until no scheduled copies remain in flight (all
// delayed deliveries have landed or been dropped), so Stats snapshots
// are exact, or until timeout elapses; it reports whether the network
// went idle. New traffic started while waiting resets the clock only
// in the sense that it must also land.
func (n *Network) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// Poll with exponential backoff: fast enough (50µs) that an
	// already-idle network returns almost immediately, backing off to
	// 5ms so a long drain does not keep a core busy while chaos tests
	// wait out jittered deliveries.
	const maxPoll = 5 * time.Millisecond
	poll := 50 * time.Microsecond
	for {
		if n.inFlight.Load() == 0 {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return n.inFlight.Load() == 0
		}
		if poll > remain {
			poll = remain
		}
		time.Sleep(poll)
		if poll < maxPoll {
			poll *= 2
		}
	}
}

// maxQueue is the most packets an endpoint holds unread; a copy that
// finds its destination's queue full is dropped, as a real NIC drops
// past its receive ring. minRing is the ring a first packet allocates.
const (
	maxQueue = 256
	minRing  = 4
)

// pooledSize is the size of the pooled buffers datagram copies are made
// in: an Ethernet payload of 1500 bytes rounded up to its allocation
// size class. A larger datagram gets a buffer of its own.
const pooledSize = 1536

var payloads = sync.Pool{New: func() any { return new([pooledSize]byte) }}

// copyPayload returns a copy of data that the packet carrying it owns:
// in a pooled buffer, which release returns, when it fits one.
func copyPayload(data []byte) []byte {
	if len(data) > pooledSize {
		return append(make([]byte, 0, len(data)), data...)
	}
	buf := payloads.Get().(*[pooledSize]byte)
	return buf[:copy(buf[:], data)]
}

type packet struct {
	from netip.AddrPort
	// data is the packet's own copy: in a pooled buffer exactly when its
	// capacity is pooledSize (an unpooled copy is longer than that).
	data []byte
}

// release returns the packet's buffer to the pool, once nothing reads it
// again: after the reader copied it out, or where the packet is dropped.
func (p packet) release() {
	if cap(p.data) == pooledSize {
		payloads.Put((*[pooledSize]byte)(p.data[:pooledSize]))
	}
}

// Conn is one endpoint; it implements net.PacketConn. Its receive queue
// is a FIFO ring under mu, grown by doubling up to maxQueue packets, and
// wake is a one-slot channel a reader parks on: enqueue leaves a token
// in it, so does the deadline timer once the read deadline has passed,
// and Close closes it, which wakes every parked reader.
type Conn struct {
	net  *Network
	addr netip.AddrPort

	mu sync.Mutex
	// ring holds the count queued packets from head on, wrapping; its
	// length is zero or a power of two.
	ring  []packet
	head  int
	count int
	// closed is set once, under mu, by Close; writes read it without.
	closed       atomic.Bool
	wake         chan struct{}
	readDeadline time.Time
	// timer runs expire at timerAt, or timerAt is zero and nothing is
	// pending; it is made at the first deadline that needs it.
	timer   *time.Timer
	timerAt time.Time
}

var _ net.PacketConn = (*Conn)(nil)

// ReadFrom implements net.PacketConn.
func (c *Conn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := c.ReadFromUDPAddrPort(p)
	if err != nil {
		return 0, nil, err
	}
	return n, net.UDPAddrFromAddrPort(from), nil
}

// ReadFromUDPAddrPort is ReadFrom with the sender's address in netip
// form, as on *net.UDPConn. Under the endpoint's lock a passed deadline
// fails first, then a closed endpoint, and otherwise a queued packet is
// taken. A read that has to wait parks on wake alone, with or without a
// deadline: the deadline timer leaves a token there once it passes, and
// a reader that finds it passed leaves one for the next waiting reader.
func (c *Conn) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	for {
		c.mu.Lock()
		if deadline := c.readDeadline; !deadline.IsZero() && !time.Now().Before(deadline) {
			if !c.closed.Load() {
				c.signalLocked() // for the next waiting reader, whose deadline it is too
			}
			c.mu.Unlock()
			return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
		}
		if c.closed.Load() {
			c.mu.Unlock()
			return 0, netip.AddrPort{}, net.ErrClosed
		}
		if c.count > 0 {
			pkt := c.popLocked()
			if c.count > 0 {
				c.signalLocked()
			}
			c.mu.Unlock()
			n := copy(p, pkt.data)
			pkt.release()
			return n, pkt.from, nil
		}
		c.mu.Unlock()
		<-c.wake
	}
}

// armLocked makes sure wake gets a token once the read deadline passes:
// a deadline already passed signals now, and otherwise the timer is
// armed for it, unless it is pending for no later than that already
// (expire then re-arms it for the rest). Callers hold c.mu.
func (c *Conn) armLocked() {
	t := c.readDeadline
	if t.IsZero() || c.closed.Load() || !c.timerAt.IsZero() && !t.Before(c.timerAt) {
		return
	}
	d := time.Until(t)
	switch {
	case d <= 0:
		c.signalLocked()
		return
	case c.timer == nil:
		c.timer = time.AfterFunc(d, c.expire)
	default:
		c.timer.Reset(d)
	}
	c.timerAt = t
}

// expire is the deadline timer: it signals wake if the read deadline has
// passed, and re-arms for the rest if the deadline moved later. After
// Close it does nothing.
func (c *Conn) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timerAt = time.Time{}
	c.armLocked()
}

// WriteTo implements net.PacketConn.
func (c *Conn) WriteTo(p []byte, addr net.Addr) (int, error) {
	to, err := toAddrPort(addr)
	if err != nil {
		return 0, err
	}
	return c.WriteToUDPAddrPort(p, to)
}

// WriteToUDPAddrPort is WriteTo with the destination in netip form, as
// on *net.UDPConn.
func (c *Conn) WriteToUDPAddrPort(p []byte, to netip.AddrPort) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	c.net.deliver(c.addr, to, p)
	return len(p), nil
}

// Close implements net.PacketConn. It stops the deadline timer,
// releases what is queued and closes wake, so every parked reader
// returns net.ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return nil
	}
	c.closed.Store(true)
	if c.timer != nil {
		c.timer.Stop()
		c.timerAt = time.Time{}
	}
	for c.count > 0 {
		c.popLocked().release()
	}
	c.ring = nil
	close(c.wake)
	c.mu.Unlock()
	c.net.Partition(c.addr)
	return nil
}

// LocalAddr implements net.PacketConn.
func (c *Conn) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(c.addr) }

// AddrPort returns the endpoint's address in netip form (convenience
// for configuring link profiles before a node starts).
func (c *Conn) AddrPort() netip.AddrPort { return c.addr }

// SetDeadline implements net.PacketConn. Only the read side has
// meaning here (writes complete instantly and never block), so it
// applies t as the read deadline.
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn. The deadline applies to
// reads already waiting too.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	c.armLocked()
	return nil
}

// ErrWriteDeadlineUnsupported reports that memnet writes cannot carry
// a deadline: WriteTo enqueues synchronously and never blocks, so a
// write deadline could never fire and silently accepting one would be
// misleading.
var ErrWriteDeadlineUnsupported = errors.New("memnet: write deadlines not supported")

// SetWriteDeadline implements net.PacketConn. Clearing the deadline
// (the zero time) succeeds; setting one returns
// ErrWriteDeadlineUnsupported because writes complete instantly.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		return nil
	}
	return ErrWriteDeadlineUnsupported
}

func toAddrPort(addr net.Addr) (netip.AddrPort, error) {
	switch a := addr.(type) {
	case *net.UDPAddr:
		return a.AddrPort(), nil
	default:
		ap, err := netip.ParseAddrPort(addr.String())
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("memnet: bad address %v: %w", addr, err)
		}
		return ap, nil
	}
}
