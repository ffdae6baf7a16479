package node

import (
	"net/netip"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/wire"
)

// server is what the serve loop reuses from one datagram to the next:
// the read buffer, the decoder, the reply under construction and the
// slices it points into. Only the serve loop's goroutine touches it, and
// send retains nothing, so a reply is overwritten only after it has
// left; a decoded message is consumed, by dispatch or by the finish step
// of the flight it answers, before the next read.
type server struct {
	buf     []byte
	dec     wire.Decoder
	entries []wire.PongEntry
	results []string
	pong    wire.Pong
	hit     wire.QueryHit
	busy    wire.Busy
}

// serveLoop reads datagrams and dispatches until the socket closes.
func (n *Node) serveLoop() {
	defer n.wg.Done()
	sv := &server{
		buf:     make([]byte, wire.MaxPacket),
		entries: make([]wire.PongEntry, 0, n.cfg.PongSize),
	}
	for {
		count, from, err := n.conn.ReadFromUDPAddrPort(sv.buf)
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			// Transient errors (e.g. ICMP port unreachable surfaced on
			// some platforms) should not kill the node.
			n.logf("read error: %v", err)
			continue
		}
		// One clock reading per datagram: the drain loop's quiet
		// detector, admission, the TS clock and the RTT of a reply all
		// see this arrival.
		at := time.Now()
		n.lastInbound.Store(at.UnixNano())
		msg, err := sv.dec.Decode(sv.buf[:count])
		if err != nil {
			n.met.MalformedDropped.Inc()
			continue
		}
		n.dispatch(sv, msg, unmap(from), at)
	}
}

// dispatch handles one inbound message that arrived at time at. While
// draining, new probes are refused with Busy (so requesters fail over
// fast) but replies still flow to any probe served before the drain
// began.
func (n *Node) dispatch(sv *server, msg wire.Message, from netip.AddrPort, at time.Time) {
	switch m := msg.(type) {
	case *wire.Ping:
		n.met.PingsReceived.Inc()
		if n.Draining() {
			n.shed(sv, shedDrain, m.MsgID, from)
			return
		}
		n.handlePing(sv, m, from, at)
	case *wire.Query:
		if n.Draining() {
			n.shed(sv, shedDrain, m.MsgID, from)
			return
		}
		n.handleQuery(sv, m, from, at)
	case *wire.Pong, *wire.QueryHit, *wire.Busy:
		n.deliver(msg, at)
	}
}

// shed refuses a probe with Busy, accounting the refusal by tier.
// Flat-window refusals (shedFlat) count only in ProbesRefused,
// preserving the original counter semantics.
func (n *Node) shed(sv *server, tier shedTier, msgID uint64, from netip.AddrPort) {
	n.met.ProbesRefused.Inc()
	switch tier {
	case shedPing:
		n.met.ShedPings.Inc()
	case shedQuery:
		n.met.ShedQueries.Inc()
	case shedDrain:
		n.met.ShedDrain.Inc()
	}
	sv.busy = wire.Busy{MsgID: msgID}
	if err := n.send(&sv.busy, from); err != nil {
		n.logf("busy to %v: %v", from, err)
	}
}

// admitLocked runs admission and, for an admitted probe, introduction
// and the pong under sel, which it leaves in sv.entries; callers hold
// n.mu.
func (n *Node) admitLocked(sv *server, kind probeKind, sel policy.Selection, from netip.AddrPort, numFiles uint32, at time.Time) admitVerdict {
	v := n.adm.admit(RequesterKey(from, n.keySalt), kind, at)
	if !v.ok {
		return v
	}
	if v.skipCacheWrite {
		n.met.CacheWriteSkips.Inc()
	} else {
		n.introduce(from, numFiles, n.clock(at))
	}
	sv.entries = n.appendPongEntries(sv.entries[:0], sel, from)
	return v
}

// handlePing applies admission and introduction and replies with a
// pong. Only the fair controller ever sheds pings (tier 1, under
// pressure); the flat default admits every ping, as the paper does.
func (n *Node) handlePing(sv *server, m *wire.Ping, from netip.AddrPort, at time.Time) {
	n.mu.Lock()
	v := n.admitLocked(sv, probePing, n.cfg.PingPong, from, m.NumFiles, at)
	n.mu.Unlock()
	if !v.ok {
		n.shed(sv, v.tier, m.MsgID, from)
		return
	}
	sv.pong = wire.Pong{MsgID: m.MsgID, Entries: sv.entries}
	if err := n.send(&sv.pong, from); err != nil {
		n.logf("pong to %v: %v", from, err)
	}
}

// handleQuery applies admission, matches shared files and replies with
// a QueryHit carrying the piggy-backed pong — or Busy when the
// admission controller sheds the probe.
func (n *Node) handleQuery(sv *server, m *wire.Query, from netip.AddrPort, at time.Time) {
	n.mu.Lock()
	v := n.admitLocked(sv, probeQuery, n.cfg.QueryPong, from, m.NumFiles, at)
	n.mu.Unlock()
	if !v.ok {
		n.shed(sv, v.tier, m.MsgID, from)
		return
	}
	n.met.QueriesServed.Inc()

	sv.results = sv.results[:0]
	keyword := strings.ToLower(m.Keyword)
	for i, name := range n.filesLower {
		if matches(name, keyword) {
			sv.results = append(sv.results, n.cfg.Files[i])
			if len(sv.results) >= wire.MaxHits || len(sv.results) >= int(m.Desired) {
				break
			}
		}
	}
	sv.hit = wire.QueryHit{MsgID: m.MsgID, Results: sv.results, Pong: sv.entries}
	if err := n.send(&sv.hit, from); err != nil {
		n.logf("queryhit to %v: %v", from, err)
	}
}

// introduce applies the introduction protocol for an interaction
// initiated by from at time ts on the TS clock; callers hold n.mu.
func (n *Node) introduce(from netip.AddrPort, numFiles uint32, ts float64) {
	if from == n.self {
		return
	}
	// Touching needs no ID of a requester that has none: it is not in
	// the link cache. Only one being inserted is numbered.
	n.link.Touch(n.lookupID(from), ts)
	if !n.rng.Bool(n.cfg.IntroProb) {
		return
	}
	id := n.idFor(from)
	if id == 0 {
		return
	}
	n.insertLocked(cache.Entry{
		Addr:     id,
		TS:       ts,
		NumFiles: int32(clampFiles(numFiles)),
		Direct:   true,
	})
	n.syncCacheGauge()
}

// pongEntry is e as a pong carries it: its address, with NumRes
// clamped into 16 bits; false when e's ID names no address. Callers
// hold n.mu.
func (n *Node) pongEntry(e cache.Entry) (wire.PongEntry, bool) {
	addr := n.ids.addrs[e.Addr]
	return wire.PongEntry{
		Addr:     addr,
		NumFiles: uint32(e.NumFiles),
		NumRes:   uint16(min(max(int(e.NumRes), 0), 1<<16-1)),
	}, addr.IsValid()
}

// appendPongEntries appends a pong built under the given policy,
// excluding the recipient's own address, to out; callers hold n.mu.
func (n *Node) appendPongEntries(out []wire.PongEntry, sel policy.Selection, recipient netip.AddrPort) []wire.PongEntry {
	entries := n.link.Entries()
	for _, i := range n.pick.PickN(n.rng, sel, entries, n.cfg.PongSize+1) {
		pe, ok := n.pongEntry(entries[i])
		if !ok || pe.Addr == recipient {
			continue
		}
		out = append(out, pe)
		if len(out) == n.cfg.PongSize {
			break
		}
	}
	return out
}
