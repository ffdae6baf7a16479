package node

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/node/memnet"
)

// startMemNode runs a node on an in-memory network endpoint.
func startMemNode(t *testing.T, nw *memnet.Network, cfg Config) *Node {
	t.Helper()
	n, err := New(nw.Listen(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestMemnetQuery(t *testing.T) {
	nw := memnet.New(1)
	sharer := startMemNode(t, nw, Config{Files: []string{"the file.txt"}})
	querier := startMemNode(t, nw, Config{})
	querier.AddPeer(sharer.Addr(), 1)

	hits, stats, err := querier.Query(context.Background(), "the file", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || stats.Good != 1 {
		t.Fatalf("hits=%v stats=%+v", hits, stats)
	}
}

// TestMemnetAddPeerRejectsZeroAddress: the zero address never enters
// the link cache, so a query has nothing to probe and reports no probes.
func TestMemnetAddPeerRejectsZeroAddress(t *testing.T) {
	nw := memnet.New(1)
	querier := startMemNode(t, nw, Config{})
	querier.AddPeer(netip.AddrPort{}, 5)
	if n := querier.CacheLen(); n != 0 {
		t.Fatalf("%d entries cached after adding the zero address", n)
	}
	hits, stats, err := querier.Query(context.Background(), "anything", 1)
	if err != nil || len(hits) != 0 || stats.Probes != 0 {
		t.Fatalf("hits=%v stats=%+v err=%v", hits, stats, err)
	}
}

func TestMemnetPartitionedPeerLooksDead(t *testing.T) {
	nw := memnet.New(1)
	sharer := startMemNode(t, nw, Config{Files: []string{"gone.txt"}})
	querier := startMemNode(t, nw, Config{ProbeTimeout: 50 * time.Millisecond})
	querier.AddPeer(sharer.Addr(), 1)
	nw.Partition(sharer.Addr())

	hits, stats, err := querier.Query(context.Background(), "gone", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 || stats.Dead != 1 {
		t.Fatalf("partitioned peer not treated as dead: hits=%v stats=%+v", hits, stats)
	}
	if querier.CacheLen() != 0 {
		t.Fatal("dead entry not evicted")
	}
}

func TestMemnetQuerySurvivesPacketLoss(t *testing.T) {
	nw := memnet.New(3)
	nw.SetLoss(0.3)
	// Several sharers all hold the file; with 30% loss some probes
	// time out, but the serial walk must still find a copy.
	querier := startMemNode(t, nw, Config{ProbeTimeout: 40 * time.Millisecond, Seed: 9})
	for i := 0; i < 8; i++ {
		s := startMemNode(t, nw, Config{Files: []string{"resilient.bin"}, Seed: uint64(i + 2)})
		querier.AddPeer(s.Addr(), 1)
	}
	hits, stats, err := querier.Query(context.Background(), "resilient", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatalf("query failed under 30%% loss: stats=%+v", stats)
	}
}

func TestMemnetLatencySlowsQueries(t *testing.T) {
	nw := memnet.New(1)
	nw.SetLatency(30 * time.Millisecond)
	sharer := startMemNode(t, nw, Config{Files: []string{"slow.txt"}})
	querier := startMemNode(t, nw, Config{ProbeTimeout: 500 * time.Millisecond})
	querier.AddPeer(sharer.Addr(), 1)

	start := time.Now()
	hits, _, err := querier.Query(context.Background(), "slow", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatal("query failed under latency")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~60ms (2x 30ms latency)", elapsed)
	}
}

func TestMemnetGossipNetwork(t *testing.T) {
	// A 15-node network on memnet with fast pings: addresses must
	// spread beyond the bootstrap peer.
	nw := memnet.New(5)
	nodes := make([]*Node, 15)
	for i := range nodes {
		nodes[i] = startMemNode(t, nw, Config{
			Files:        []string{"common.txt"},
			PingInterval: 25 * time.Millisecond,
			IntroProb:    0.5,
			Seed:         uint64(i + 1),
		})
	}
	for i := 1; i < len(nodes); i++ {
		nodes[i].AddPeer(nodes[0].Addr(), 1)
		nodes[0].AddPeer(nodes[i].Addr(), 1)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if nodes[1].CacheLen() >= 3 {
			return // learned peers beyond the bootstrap
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("gossip did not spread: node1 cache=%d", nodes[1].CacheLen())
}
