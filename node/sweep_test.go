package node

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/wire"
	"repro/node/memnet"
)

// TestIntroduceNumbersOnlyInserted: a served probe numbers its sender
// only if the introduction protocol inserts it, so a node that serves
// a thousand requesters and introduces none numbers only itself and
// its peers.
func TestIntroduceNumbersOnlyInserted(t *testing.T) {
	nw := memnet.New(1)
	n := startMemNode(t, nw, Config{IntroProb: 1e-9, PingInterval: time.Hour})
	peers := []*Node{startMemNode(t, nw, Config{}), startMemNode(t, nw, Config{})}
	for _, p := range peers {
		n.AddPeer(p.Addr(), 0)
	}
	const requesters = 1000
	for i := 1; i <= requesters; i++ {
		q := newRawRequester(nw, n.Addr())
		got, err := q.roundTrip(&wire.Ping{MsgID: uint64(i)})
		q.conn.Close()
		if err != nil || got != wire.TypePong {
			t.Fatalf("requester %d: reply %v, %v", i, got, err)
		}
	}
	if got := n.Stats().PingsReceived; got != requesters {
		t.Fatalf("%d pings served, want %d", got, requesters)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ids.live != 1+len(peers) {
		t.Fatalf("%d addresses numbered, want the node and its %d peers", n.ids.live, len(peers))
	}
}

// TestAddressTableBounded: a node that hears far more distinct addresses
// than its cache holds, from the pongs of the peer it queries, numbers
// at most a bound proportional to its cache size (its cache, the
// candidates of the query in progress and itself, twice over), and every
// query still finds its item. So does the peer, which is handed a new
// address for each one its pong carries.
func TestAddressTableBounded(t *testing.T) {
	nw := memnet.New(1)
	sharer := startMemNode(t, nw, Config{Files: []string{"needle.dat"}, CacheSize: 5, PingInterval: time.Hour})
	// The querier probes the peer with the most files first: the sharer,
	// never one of the addresses its pongs carry, which no one listens on.
	q := startMemNode(t, nw, Config{CacheSize: 8, QueryProbe: policy.SelMFS, PingInterval: time.Hour})
	heard := map[netip.AddrPort]bool{}
	fresh := uint32(0)
	for round := 0; round < 250; round++ {
		for range 5 {
			fresh++
			sharer.AddPeer(freshAddr(fresh), 0)
		}
		// Random replacement may turn a candidate away: offer the
		// sharer until it is cached.
		for !slices.Contains(q.CacheAddrs(), sharer.Addr()) {
			q.AddPeer(sharer.Addr(), 1000)
		}
		hits, _, err := q.Query(context.Background(), "needle", 1)
		if err != nil || len(hits) != 1 || hits[0].From != sharer.Addr() {
			t.Fatalf("round %d: hits %v, %v", round, hits, err)
		}
		for _, ap := range q.CacheAddrs() {
			heard[ap] = true
		}
		for _, nd := range []*Node{q, sharer} {
			nd.mu.Lock()
			numbered, bound := len(nd.ids.addrs)-1, 8*nd.cfg.CacheSize
			nd.mu.Unlock()
			if numbered > bound {
				t.Fatalf("round %d: %v handed out %d IDs, bound %d", round, nd.Addr(), numbered, bound)
			}
		}
	}
	if len(heard) < 50*8 {
		t.Fatalf("the querier cached only %d distinct addresses", len(heard))
	}
}

// TestSweepKeepsQueryCandidates: a sweep while a query is in flight
// keeps the IDs of every candidate the query holds, even once they have
// left the link cache. No new address is numbered with one of them,
// and the query goes on to probe each candidate.
func TestSweepKeepsQueryCandidates(t *testing.T) {
	nw := memnet.New(1)
	q := startMemNode(t, nw, Config{CacheSize: 4, PingInterval: time.Hour, ProbeTimeout: 10 * time.Second, MaxProbeAttempts: 1})
	// Four peers answer a query with an empty hit, once released.
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	probed := make(chan netip.AddrPort, 8)
	peers := make([]netip.AddrPort, 4)
	for i := range peers {
		c := nw.Listen()
		t.Cleanup(func() { c.Close() })
		peers[i] = c.AddrPort()
		q.AddPeer(peers[i], 1)
		go func() {
			buf := make([]byte, wire.MaxPacket)
			for {
				k, from, err := c.ReadFromUDPAddrPort(buf)
				if err != nil {
					return
				}
				m, err := wire.Decode(buf[:k])
				if err != nil || m.Type() != wire.TypeQuery {
					continue
				}
				probed <- c.AddrPort()
				<-release
				if pkt, err := wire.Encode(&wire.QueryHit{MsgID: m.ID()}); err == nil {
					c.WriteToUDPAddrPort(pkt, from)
				}
			}
		}()
	}
	type result struct {
		stats QueryStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		_, stats, err := q.Query(context.Background(), "anything", 1)
		done <- result{stats, err}
	}()
	var got []netip.AddrPort
	select {
	case ap := <-probed:
		got = append(got, ap)
	case <-time.After(5 * time.Second):
		t.Fatal("the query sent no probe")
	}

	q.mu.Lock()
	candidates := map[cache.PeerID]netip.AddrPort{}
	for _, ap := range peers {
		candidates[q.lookupID(ap)] = ap
	}
	q.link.Clear()
	for i := uint32(1); i <= 1000; i++ {
		ap := freshAddr(i)
		if id := q.idFor(ap); candidates[id].IsValid() {
			t.Errorf("%v numbered %d, the ID of candidate %v", ap, id, candidates[id])
		}
	}
	swept := len(q.ids.addrs) < 1000
	for id, ap := range candidates {
		if got := q.lookupID(ap); got != id {
			t.Errorf("candidate %v renumbered %d -> %d", ap, id, got)
		}
	}
	q.mu.Unlock()
	if !swept {
		t.Fatal("a thousand new addresses and no sweep")
	}
	if t.Failed() {
		t.FailNow()
	}
	once.Do(func() { close(release) })

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the query did not finish")
	}
	close(probed)
	for ap := range probed {
		got = append(got, ap)
	}
	slices.SortFunc(got, netip.AddrPort.Compare)
	slices.SortFunc(peers, netip.AddrPort.Compare)
	if res.err != nil || res.stats.Probes != len(peers) || res.stats.Good != len(peers) || !slices.Equal(got, peers) {
		t.Fatalf("query: %+v, %v; probed %v, want each of %v once", res.stats, res.err, got, peers)
	}
}

// TestPingTimeoutSpansSweep: a maintenance ping to a silent peer is in
// the air while the peer is evicted, a sweep frees its ID and a new
// address is numbered with it and cached. The ping's timeout must not
// evict or blame that new owner of the ID.
func TestPingTimeoutSpansSweep(t *testing.T) {
	nw := memnet.New(1)
	q := startMemNode(t, nw, Config{CacheSize: 4, PingInterval: time.Hour, ProbeTimeout: 500 * time.Millisecond, MaxProbeAttempts: 1})
	silent := nw.Listen()
	t.Cleanup(func() { silent.Close() })
	q.AddPeer(silent.AddrPort(), 1)
	done := make(chan struct{})
	go func() {
		q.pingOnce()
		close(done)
	}()
	buf := make([]byte, wire.MaxPacket)
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if k, _, err := silent.ReadFromUDPAddrPort(buf); err != nil {
		t.Fatalf("no ping reached the silent peer: %v", err)
	} else if m, err := wire.Decode(buf[:k]); err != nil || m.Type() != wire.TypePing {
		t.Fatalf("the silent peer got %v, %v; want a ping", m, err)
	}

	q.mu.Lock()
	old := q.lookupID(silent.AddrPort())
	q.link.Remove(old)
	var heir netip.AddrPort
	for i := uint32(1); i <= 1000 && !heir.IsValid(); i++ {
		if ap := freshAddr(i); q.idFor(ap) == old {
			heir = ap
		}
	}
	if heir.IsValid() {
		q.insertLocked(cache.Entry{Addr: old, TS: q.now(), NumFiles: 1, Direct: true})
	}
	q.mu.Unlock()
	if !heir.IsValid() {
		t.Fatalf("no sweep handed the silent peer's ID %d on", old)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the ping did not time out")
	}
	if got := q.CacheAddrs(); !slices.Equal(got, []netip.AddrPort{heir}) {
		t.Fatalf("cache after the timeout: %v, want the ID's new owner %v", got, heir)
	}
	q.mu.Lock()
	blamed := q.health.len()
	q.mu.Unlock()
	if ev := q.Stats().DeadEvictions; ev != 0 || blamed != 0 {
		t.Fatalf("the timeout evicted %d peers and left health state for %d", ev, blamed)
	}
}

// TestSweepUnderConcurrentQueries: a querier whose cache holds two
// entries keeps hearing new addresses from a 48-node network, so it
// sweeps (some 50 times a run) while up to three of its queries are in
// flight, on whichever goroutine absorbs a pong. No query reaches a
// node twice or finds one dead, every query finds what it wants, and
// every cached ID still names the address it was cached for.
func TestSweepUnderConcurrentQueries(t *testing.T) {
	nw := memnet.New(3)
	const peers = 48
	var pool []*Node
	for i := 0; i < peers; i++ {
		pool = append(pool, startMemNode(t, nw, Config{
			Files:        []string{fmt.Sprintf("file-%d.dat", i)},
			CacheSize:    4,
			PingInterval: time.Hour,
			Seed:         uint64(i + 2),
		}))
	}
	for i, p := range pool {
		for j := 1; j <= 4; j++ {
			p.AddPeer(pool[(i+j*5)%peers].Addr(), 1)
		}
	}
	q := startMemNode(t, nw, Config{CacheSize: 2, PingInterval: 5 * time.Millisecond, Seed: 1})
	q.AddPeer(pool[0].Addr(), 1)
	q.AddPeer(pool[1].Addr(), 1)

	const workers, queries = 3, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				hits, stats, err := q.Query(context.Background(), "file-", 2)
				from := map[netip.AddrPort]bool{}
				for _, h := range hits {
					if from[h.From] {
						t.Errorf("one query reached %v twice", h.From)
					}
					from[h.From] = true
				}
				if err != nil || stats.Dead != 0 || len(hits) != stats.Good || len(hits) != 2 {
					t.Errorf("query: %v, %+v, %d hits", err, stats, len(hits))
				}
				q.mu.Lock()
				for _, e := range q.link.Entries() {
					if id := q.lookupID(q.ids.addrs[e.Addr]); id != e.Addr {
						t.Errorf("cached ID %d is %v, which looks up as %d", e.Addr, q.ids.addrs[e.Addr], id)
					}
				}
				q.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
