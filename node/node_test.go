package node

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/policy"
)

// startNode spins up a node on a loopback UDP socket.
func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestListenAndClose(t *testing.T) {
	n := startNode(t, Config{})
	if !n.Addr().IsValid() {
		t.Fatal("invalid node address")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations after close fail cleanly.
	if _, _, err := n.Query(context.Background(), "x", 1); err == nil {
		t.Fatal("Query succeeded after Close")
	}
	if _, err := n.PingPeer(context.Background(), n.Addr()); err == nil {
		t.Fatal("PingPeer succeeded after Close")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{CacheSize: -1},
		{PingInterval: -time.Second},
		{ProbeTimeout: -time.Second},
		{PongSize: 1000},
		{IntroProb: 2},
		{QueryProbe: 99},
		{CacheReplacement: 99},
		{MaxProbesPerSecond: -5},
	}
	for i, cfg := range bad {
		if _, err := Listen("127.0.0.1:0", cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestPingPeer(t *testing.T) {
	a := startNode(t, Config{Files: []string{"one", "two"}})
	b := startNode(t, Config{})
	ok, err := b.PingPeer(context.Background(), a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("live peer did not answer ping")
	}
	// Pinging a dead address times out without error.
	dead := netip.MustParseAddrPort("127.0.0.1:1")
	ok, err = b.PingPeer(context.Background(), dead)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dead peer answered")
	}
}

func TestQueryFindsFiles(t *testing.T) {
	sharer := startNode(t, Config{Files: []string{"Free Bird.mp3", "stairway.ogg"}})
	empty := startNode(t, Config{})
	querier := startNode(t, Config{})
	querier.AddPeer(empty.Addr(), 0)
	querier.AddPeer(sharer.Addr(), 2)

	hits, stats, err := querier.Query(context.Background(), "free bird", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Name != "Free Bird.mp3" || hits[0].From != sharer.Addr() {
		t.Fatalf("unexpected hit %+v", hits[0])
	}
	if stats.Probes < 1 || stats.Good < 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestQueryStopsWhenSatisfied(t *testing.T) {
	sharer := startNode(t, Config{Files: []string{"hit.mp3"}})
	querier := startNode(t, Config{QueryProbe: policy.SelMFS})
	// MFS probes the advertised-rich sharer first; the query must stop
	// there and not probe the rest.
	for i := 0; i < 5; i++ {
		other := startNode(t, Config{})
		querier.AddPeer(other.Addr(), 0)
	}
	querier.AddPeer(sharer.Addr(), 100)

	hits, stats, err := querier.Query(context.Background(), "hit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if stats.Probes != 1 {
		t.Fatalf("probed %d peers, want 1 (MFS should try the sharer first)", stats.Probes)
	}
}

func TestQueryExhaustsAndReportsDead(t *testing.T) {
	querier := startNode(t, Config{ProbeTimeout: 50 * time.Millisecond})
	querier.AddPeer(netip.MustParseAddrPort("127.0.0.1:1"), 0) // dead
	hits, stats, err := querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits from dead network: %v", hits)
	}
	if stats.Dead != 1 || stats.Probes != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if querier.CacheLen() != 0 {
		t.Fatal("dead peer not evicted")
	}
}

func TestQueryValidation(t *testing.T) {
	n := startNode(t, Config{})
	if _, _, err := n.Query(context.Background(), "", 1); err == nil {
		t.Fatal("empty keyword accepted")
	}
	if _, _, err := n.Query(context.Background(), "x", 0); err == nil {
		t.Fatal("desired=0 accepted")
	}
	if _, _, err := n.Query(context.Background(), "x", 300); err == nil {
		t.Fatal("desired=300 accepted")
	}
}

func TestQueryCacheChaining(t *testing.T) {
	// The querier knows only a relay; the relay knows the sharer. The
	// query must reach the sharer via the relay's piggy-backed pong.
	sharer := startNode(t, Config{Files: []string{"rare groove.flac"}})
	relay := startNode(t, Config{})
	relay.AddPeer(sharer.Addr(), 1)
	querier := startNode(t, Config{})
	querier.AddPeer(relay.Addr(), 0)

	hits, stats, err := querier.Query(context.Background(), "rare groove", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("chained query failed: hits=%v stats=%+v", hits, stats)
	}
	if stats.Probes != 2 {
		t.Fatalf("probes = %d, want 2 (relay then sharer)", stats.Probes)
	}
}

func TestBusyRefusal(t *testing.T) {
	sharer := startNode(t, Config{
		Files:              []string{"wanted.mp3"},
		MaxProbesPerSecond: 1,
	})
	querier := startNode(t, Config{})
	ctx := context.Background()

	// First query consumes the capacity; the second must be refused.
	querier.AddPeer(sharer.Addr(), 1)
	if _, _, err := querier.Query(ctx, "wanted", 1); err != nil {
		t.Fatal(err)
	}
	querier.AddPeer(sharer.Addr(), 1)
	_, stats, err := querier.Query(ctx, "wanted", 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refused != 1 {
		t.Fatalf("stats = %+v, want one refusal", stats)
	}
	if got := sharer.Stats().ProbesRefused; got != 1 {
		t.Fatalf("sharer refused %d, want 1", got)
	}
}

func TestIntroductionProtocol(t *testing.T) {
	// With IntroProb=1 the pinged node must learn the pinger.
	a := startNode(t, Config{IntroProb: 1})
	b := startNode(t, Config{Files: []string{"f"}})
	if _, err := b.PingPeer(context.Background(), a.Addr()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, addr := range a.CacheAddrs() {
		if addr == b.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatal("introduction did not add the pinger")
	}
}

func TestPingLoopEvictsDeadPeers(t *testing.T) {
	n := startNode(t, Config{
		PingInterval: 30 * time.Millisecond,
		ProbeTimeout: 30 * time.Millisecond,
	})
	n.AddPeer(netip.MustParseAddrPort("127.0.0.1:1"), 0)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if n.CacheLen() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("dead peer still cached after %v; stats %+v", 3*time.Second, n.Stats())
}

func TestPongGossipSpreadsEntries(t *testing.T) {
	// a knows b; c pings a repeatedly and should learn b through pongs.
	a := startNode(t, Config{})
	b := startNode(t, Config{Files: []string{"x"}})
	a.AddPeer(b.Addr(), 1)
	c := startNode(t, Config{})
	ctx := context.Background()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.PingPeer(ctx, a.Addr()); err != nil {
			t.Fatal(err)
		}
		for _, addr := range c.CacheAddrs() {
			if addr == b.Addr() {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("gossip never delivered b's address")
}

func TestSmallLiveNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("live network test in -short mode")
	}
	// A 12-node network: everyone bootstraps off node 0, one node
	// shares the rare file, and a query from the far side must find it.
	const peers = 12
	nodes := make([]*Node, peers)
	for i := range nodes {
		files := []string{fmt.Sprintf("common-%d.txt", i)}
		if i == peers-1 {
			files = append(files, "the rare file.iso")
		}
		nodes[i] = startNode(t, Config{
			Files:        files,
			PingInterval: 50 * time.Millisecond,
			IntroProb:    0.5,
			Seed:         uint64(i + 1),
		})
	}
	for i := 1; i < peers; i++ {
		nodes[i].AddPeer(nodes[0].Addr(), uint32(nodes[0].NumFiles()))
		nodes[0].AddPeer(nodes[i].Addr(), uint32(nodes[i].NumFiles()))
	}
	// Let ping/pong gossip circulate addresses until node 1 caches the
	// sharer, so the query's candidates hold it from the start. A peer
	// node 1 caches that caches the sharer is not enough: node 0 caches
	// everyone from the bootstrap on, and its pong carries five of them.
	sharer := nodes[peers-1].Addr()
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(nodes[1].CacheAddrs(), sharer); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 5 s of gossip node 1 does not cache the sharer: cache=%v", nodes[1].CacheAddrs())
		}
	}

	hits, stats, err := nodes[1].Query(context.Background(), "rare file", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].From != sharer {
		t.Fatalf("rare file not found: hits=%v stats=%+v cache=%d",
			hits, stats, nodes[1].CacheLen())
	}
	if stats.Probes > peers {
		t.Fatalf("query probed %d peers in a %d-peer network", stats.Probes, peers)
	}
}

func TestStatsSnapshot(t *testing.T) {
	a := startNode(t, Config{})
	b := startNode(t, Config{})
	if _, err := b.PingPeer(context.Background(), a.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().PingsSent; got != 1 {
		t.Fatalf("PingsSent = %d", got)
	}
	if got := a.Stats().PingsReceived; got != 1 {
		t.Fatalf("PingsReceived = %d", got)
	}
}

// TestFullAddressTableStopsCaching: a node that has numbered every
// address a PeerID can hold keeps the peers it knows and treats a new
// address as not cacheable on every path that would number one,
// instead of truncating the table's length into an ID some other
// address already has.
func TestFullAddressTableStopsCaching(t *testing.T) {
	sharer := startNode(t, Config{Files: []string{"rare groove.flac"}})
	relay := startNode(t, Config{Files: []string{"rare groove (live).flac"}})
	relay.AddPeer(sharer.Addr(), 1)
	n := startNode(t, Config{IntroProb: 1})
	n.AddPeer(relay.Addr(), 1)
	n.mu.Lock()
	n.ids.maxID = cache.PeerID(len(n.ids.addrs) - 1) // self and the relay: the table is full
	n.mu.Unlock()
	onlyRelay := func(after string) {
		t.Helper()
		if got := n.CacheAddrs(); !slices.Equal(got, []netip.AddrPort{relay.Addr()}) {
			t.Fatalf("cache after %s: %v, want only the relay %v", after, got, relay.Addr())
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if len(n.ids.addrs) != 3 || n.ids.live != 2 || len(n.ids.free) != 0 {
			t.Fatalf("after %s: %d IDs handed out, %d addresses numbered, %d IDs free", after, len(n.ids.addrs)-1, n.ids.live, len(n.ids.free))
		}
	}
	ctx := context.Background()

	n.AddPeer(netip.MustParseAddrPort("127.0.0.1:1"), 0)
	onlyRelay("AddPeer")
	// The relay's pong carries the sharer: a ping's pong, then a query's.
	if ok, err := n.PingPeer(ctx, relay.Addr()); err != nil || !ok {
		t.Fatalf("ping: %v, %v", ok, err)
	}
	onlyRelay("a pong")
	hits, stats, err := n.Query(ctx, "rare groove", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].From != relay.Addr() || stats.Probes != 1 {
		t.Fatalf("query reached past the relay: hits=%v stats=%+v", hits, stats)
	}
	onlyRelay("a query's pong")
	// A stranger's ping is answered, and the stranger not introduced.
	if ok, err := sharer.PingPeer(ctx, n.Addr()); err != nil || !ok {
		t.Fatalf("stranger's ping: %v, %v", ok, err)
	}
	onlyRelay("an introduction")
}
