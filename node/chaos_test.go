package node

// The chaos battery: scripted adversarial network scenarios on the
// memnet fault simulator. Every scenario derives all randomness from
// fixed seeds (memnet draws per-link decision streams, nodes their own
// seeded RNG), so `go test -run Chaos -count=2` replays identical
// fault sequences; each scenario additionally runs itself twice in-
// process and asserts the outcomes match. Scenarios assert the
// protocol-level invariants from the paper's robustness sections:
// queries still resolve, dead entries get evicted, stats account for
// every retry and drop, and no goroutines leak.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/node/memnet"
)

// leakCheck snapshots the goroutine count and verifies, after all the
// test's cleanups (node Closes) have run, that it returns to the
// baseline. Call first in a test so its cleanup runs last.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

// requireNetInvariant asserts memnet's packet accounting identity,
// first letting in-flight delayed deliveries land.
func requireNetInvariant(t *testing.T, nw *memnet.Network) {
	t.Helper()
	if !nw.WaitIdle(2 * time.Second) {
		t.Fatal("network did not go idle")
	}
	s := nw.Stats()
	if s.Sent+s.Duplicated != s.Delivered+s.Dropped+s.Blocked+s.QueueDrop {
		t.Fatalf("network stats do not account for every packet: %+v", s)
	}
}

// requireQueryAccounting asserts every probe ended in exactly one
// outcome.
func requireQueryAccounting(t *testing.T, qs QueryStats) {
	t.Helper()
	if qs.Probes != qs.Good+qs.Dead+qs.Refused {
		t.Fatalf("query stats do not account for every probe: %+v", qs)
	}
}

// chaosCfg is the hardened querier configuration the battery uses:
// short timeouts for test speed, retries, adaptive timeouts.
func chaosCfg(seed uint64) Config {
	return Config{
		ProbeTimeout:     60 * time.Millisecond,
		MaxProbeAttempts: 4,
		RetryBackoff:     5 * time.Millisecond,
		AdaptiveTimeout:  true,
		PingInterval:     time.Hour, // scenarios drive all traffic themselves
		Seed:             seed,
	}
}

// deadCachedPeer registers a never-answering peer in the querier's
// link cache and returns its address.
func deadCachedPeer(t *testing.T, nw *memnet.Network, q *Node) (addr string) {
	t.Helper()
	dead := nw.Listen()
	deadAddr := dead.AddrPort()
	dead.Close()
	q.AddPeer(deadAddr, 1)
	return deadAddr.String()
}

// cacheHolds reports whether addr is still in the node's link cache.
func cacheHolds(n *Node, addr string) bool {
	for _, a := range n.CacheAddrs() {
		if a.String() == addr {
			return true
		}
	}
	return false
}

// Scenario 1: a flaky network — 25% loss plus jitter on every link.
// The retrying querier must still resolve its query against a pool of
// sharers, and a dead cache entry must be evicted by the walk.
func TestChaosFlakyLink(t *testing.T) {
	leakCheck(t)
	type outcome struct {
		Resolved, Evicted bool
	}
	scenario := func(t *testing.T) outcome {
		nw := memnet.New(42)
		nw.SetDefaultProfile(memnet.LinkProfile{
			Loss:    0.25,
			Latency: time.Millisecond,
			Jitter:  dist.Uniform{Lo: 0, Hi: 0.004},
		})
		querier := startMemNode(t, nw, chaosCfg(7))
		for i := 0; i < 10; i++ {
			s := startMemNode(t, nw, Config{
				Files:        []string{"needle.bin"},
				PingInterval: time.Hour,
				Seed:         uint64(i + 2),
			})
			querier.AddPeer(s.Addr(), 1)
		}
		deadAddr := deadCachedPeer(t, nw, querier)

		hits, qs, err := querier.Query(context.Background(), "needle", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)

		// A second query that matches nothing walks every candidate, so
		// the dead entry is guaranteed to be probed and evicted.
		_, qs2, err := querier.Query(context.Background(), "no such file", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs2)
		requireNetInvariant(t, nw)
		if int64(qs.Retries+qs2.Retries) > querier.Stats().Retries {
			t.Fatalf("node retry counter %d below query totals %d",
				querier.Stats().Retries, qs.Retries+qs2.Retries)
		}
		return outcome{
			Resolved: len(hits) > 0,
			Evicted:  !cacheHolds(querier, deadAddr) && querier.Stats().DeadEvictions >= 1,
		}
	}
	a := scenario(t)
	b := scenario(t)
	if a != b {
		t.Fatalf("same seeds, different outcomes: %+v vs %+v", a, b)
	}
	if !a.Resolved {
		t.Fatal("query did not resolve under 25% loss with retries")
	}
	if !a.Evicted {
		t.Fatal("dead cache entry not evicted")
	}
}

// Scenario 2: 30% duplication and 30% reordering on every link. The
// protocol must neither double-count hits nor trip over stale copies,
// and dup replies must be accounted for.
func TestChaosDuplicationReorder(t *testing.T) {
	leakCheck(t)
	type outcome struct {
		Resolved, Evicted bool
		Hits              int
	}
	scenario := func(t *testing.T) outcome {
		nw := memnet.New(99)
		nw.SetDefaultProfile(memnet.LinkProfile{
			DupProb:      0.3,
			ReorderProb:  0.3,
			ReorderDelay: 15 * time.Millisecond,
			Latency:      2 * time.Millisecond,
		})
		querier := startMemNode(t, nw, chaosCfg(3))
		for i := 0; i < 6; i++ {
			s := startMemNode(t, nw, Config{
				Files:        []string{"dup target.dat"},
				PingInterval: time.Hour,
				Seed:         uint64(i + 20),
			})
			querier.AddPeer(s.Addr(), 1)
		}
		deadAddr := deadCachedPeer(t, nw, querier)

		hits, qs, err := querier.Query(context.Background(), "dup target", 2)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)
		// Each responding peer contributes its hit exactly once even
		// when the network duplicated the QueryHit.
		if len(hits) > 2 {
			t.Fatalf("duplicated replies double-counted: %d hits", len(hits))
		}
		_, _, err = querier.Query(context.Background(), "nothing matches", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireNetInvariant(t, nw)
		if nw.Stats().Duplicated == 0 {
			t.Fatal("duplication never fired")
		}
		return outcome{
			Resolved: len(hits) > 0,
			Evicted:  !cacheHolds(querier, deadAddr),
			Hits:     len(hits),
		}
	}
	a := scenario(t)
	b := scenario(t)
	if a != b {
		t.Fatalf("same seeds, different outcomes: %+v vs %+v", a, b)
	}
	if !a.Resolved {
		t.Fatal("query did not resolve under duplication+reorder")
	}
	if !a.Evicted {
		t.Fatal("dead cache entry not evicted")
	}
}

// TestChaosDuplicatedRepliesCounted: on a link that delivers every
// reply twice, each query takes one copy and the node counts the other
// as a duplicate, query after query, so no copy goes unaccounted for.
func TestChaosDuplicatedRepliesCounted(t *testing.T) {
	leakCheck(t)
	nw := memnet.New(5)
	sharer := startMemNode(t, nw, Config{Files: []string{"twice.dat"}, PingInterval: time.Hour})
	querier := startMemNode(t, nw, Config{MaxProbeAttempts: 1, PingInterval: time.Hour})
	querier.AddPeer(sharer.Addr(), 1)
	nw.SetLink(sharer.Addr(), querier.Addr(), memnet.LinkProfile{DupProb: 1})

	const queries = 2000
	good := 0
	for i := 0; i < queries; i++ {
		_, qs, err := querier.Query(context.Background(), "twice", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)
		good += qs.Good
	}
	// The last duplicate may still be on its way to the serve loop.
	deadline := time.Now().Add(2 * time.Second)
	for querier.Stats().DupReplies < queries && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := querier.Stats(); good != queries || st.DupReplies != queries || st.LateReplies != 0 {
		t.Fatalf("%d queries: %d good, %d duplicate and %d late replies; want %d, %d and 0",
			queries, good, st.DupReplies, st.LateReplies, queries, queries)
	}
}

// Scenario 3: an asymmetric partition — the sharer hears the querier
// but its replies vanish — that later heals. The sharer must look
// dead and be evicted during the partition, and be usable again after
// healing.
func TestChaosAsymmetricHealingPartition(t *testing.T) {
	leakCheck(t)
	type outcome struct {
		DuringDead     bool
		Evicted        bool
		ServedUnheard  bool
		HealedResolved bool
	}
	scenario := func(t *testing.T) outcome {
		nw := memnet.New(5)
		nw.SetDefaultProfile(memnet.LinkProfile{Latency: time.Millisecond})
		sharer := startMemNode(t, nw, Config{
			Files:        []string{"island.txt"},
			PingInterval: time.Hour,
			Seed:         2,
		})
		cfg := chaosCfg(4)
		cfg.MaxProbeAttempts = 2
		querier := startMemNode(t, nw, cfg)
		querier.AddPeer(sharer.Addr(), 1)

		// Partition only the reply direction.
		nw.Block(sharer.Addr(), querier.Addr())
		hits, qs, err := querier.Query(context.Background(), "island", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)
		o := outcome{
			DuringDead: len(hits) == 0 && qs.Dead == 1,
			Evicted:    querier.CacheLen() == 0,
			// The asymmetry is observable: the sharer served the query
			// even though the querier never heard the answer.
			ServedUnheard: sharer.Stats().QueriesServed >= 1,
		}
		if nw.Stats().Blocked == 0 {
			t.Fatal("partition never blocked a packet")
		}

		// Heal and re-learn the peer: service must resume.
		nw.Unblock(sharer.Addr(), querier.Addr())
		querier.AddPeer(sharer.Addr(), 1)
		hits, qs, err = querier.Query(context.Background(), "island", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)
		requireNetInvariant(t, nw)
		o.HealedResolved = len(hits) == 1
		return o
	}
	a := scenario(t)
	b := scenario(t)
	if a != b {
		t.Fatalf("same seeds, different outcomes: %+v vs %+v", a, b)
	}
	if !a.DuringDead || !a.Evicted {
		t.Fatalf("partitioned peer not treated as dead+evicted: %+v", a)
	}
	if !a.ServedUnheard {
		t.Fatalf("asymmetry not exercised: %+v", a)
	}
	if !a.HealedResolved {
		t.Fatalf("healed partition did not restore service: %+v", a)
	}
}

// Scenario 4: a slow, lossy bootstrap peer whose replies are truncated
// by a tiny MTU — every datagram from it is malformed. The querier
// must count the garbage, evict the peer, and still resolve via the
// healthy sharers.
func TestChaosSlowLossyTruncatingBootstrap(t *testing.T) {
	leakCheck(t)
	type outcome struct {
		Resolved, Evicted, SawGarbage bool
	}
	scenario := func(t *testing.T) outcome {
		nw := memnet.New(17)
		bootstrap := startMemNode(t, nw, Config{
			Files:        []string{"rare gem.flac"},
			PingInterval: time.Hour,
			Seed:         30,
		})
		querier := startMemNode(t, nw, chaosCfg(8))
		// The bootstrap's reply path truncates everything to 20 bytes
		// (header is 14, so payloads are mangled), is slow, and lossy.
		nw.SetLink(bootstrap.Addr(), querier.Addr(), memnet.LinkProfile{
			MTU:     20,
			Latency: 25 * time.Millisecond,
			Loss:    0.2,
		})
		querier.AddPeer(bootstrap.Addr(), 1)
		for i := 0; i < 3; i++ {
			files := []string{fmt.Sprintf("filler %d.txt", i)}
			if i == 0 {
				files = append(files, "rare gem.flac")
			}
			s := startMemNode(t, nw, Config{
				Files:        files,
				PingInterval: time.Hour,
				Seed:         uint64(i + 40),
			})
			querier.AddPeer(s.Addr(), 2)
		}

		// desired=2 with one reachable holder forces the walk through
		// every candidate, including the mangling bootstrap.
		hits, qs, err := querier.Query(context.Background(), "rare gem", 2)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)
		requireNetInvariant(t, nw)
		if nw.Stats().Truncated == 0 {
			t.Fatal("MTU truncation never fired")
		}
		return outcome{
			Resolved:   len(hits) == 1,
			Evicted:    !cacheHolds(querier, bootstrap.Addr().String()),
			SawGarbage: querier.Stats().MalformedDropped >= 1,
		}
	}
	a := scenario(t)
	b := scenario(t)
	if a != b {
		t.Fatalf("same seeds, different outcomes: %+v vs %+v", a, b)
	}
	if !a.Resolved {
		t.Fatal("query did not resolve around the mangling bootstrap")
	}
	if !a.SawGarbage {
		t.Fatal("truncated replies not counted as malformed")
	}
	if !a.Evicted {
		t.Fatal("mangling bootstrap peer not evicted")
	}
}

// TestChaosRetryBeatsSingleShot is the acceptance measurement: on the
// same seeded 30%-loss network, retry-with-backoff must measurably
// beat the single-shot baseline at resolving queries.
func TestChaosRetryBeatsSingleShot(t *testing.T) {
	leakCheck(t)
	const trials = 20
	successes := func(attempts int) int {
		nw := memnet.New(123)
		nw.SetDefaultProfile(memnet.LinkProfile{Loss: 0.3})
		sharer := startMemNode(t, nw, Config{
			Files:        []string{"contested.iso"},
			PingInterval: time.Hour,
			Seed:         2,
		})
		querier := startMemNode(t, nw, Config{
			ProbeTimeout:     30 * time.Millisecond,
			MaxProbeAttempts: attempts,
			RetryBackoff:     5 * time.Millisecond,
			PingInterval:     time.Hour,
			Seed:             9,
		})
		ok := 0
		for i := 0; i < trials; i++ {
			querier.AddPeer(sharer.Addr(), 1) // re-learn after any eviction
			hits, qs, err := querier.Query(context.Background(), "contested", 1)
			if err != nil {
				t.Fatal(err)
			}
			requireQueryAccounting(t, qs)
			if len(hits) > 0 {
				ok++
			}
		}
		requireNetInvariant(t, nw)
		return ok
	}
	single := successes(1)
	retrying := successes(4)
	t.Logf("success under 30%% loss: single-shot %d/%d, retrying %d/%d",
		single, trials, retrying, trials)
	if retrying <= single {
		t.Fatalf("retries did not improve success: single=%d retrying=%d", single, retrying)
	}
	if retrying < trials*3/4 {
		t.Fatalf("retrying success %d/%d below 75%%", retrying, trials)
	}
	if single > retrying-3 {
		t.Fatalf("improvement not measurable: single=%d retrying=%d", single, retrying)
	}
}

// TestChaosLargeNetworkSurvives boots a 30-node network under mixed
// chaos (loss, jitter, duplication) with live gossip and asserts the
// network still gossips addresses and resolves queries, with full
// packet accounting and no goroutine leaks.
func TestChaosLargeNetworkSurvives(t *testing.T) {
	leakCheck(t)
	nw := memnet.New(1234)
	nw.SetDefaultProfile(memnet.LinkProfile{
		Loss:    0.15,
		Latency: time.Millisecond,
		Jitter:  dist.Uniform{Lo: 0, Hi: 0.003},
		DupProb: 0.1,
	})
	const peers = 30
	nodes := make([]*Node, peers)
	for i := range nodes {
		cfg := chaosCfg(uint64(i + 1))
		cfg.Files = []string{"common carol.mp3", fmt.Sprintf("unique %02d.txt", i)}
		cfg.PingInterval = 30 * time.Millisecond
		cfg.IntroProb = 0.5
		nodes[i] = startMemNode(t, nw, cfg)
	}
	for i := 1; i < peers; i++ {
		nodes[i].AddPeer(nodes[0].Addr(), 2)
		nodes[0].AddPeer(nodes[i].Addr(), 2)
	}

	// Gossip must spread addresses beyond the bootstrap despite the
	// chaos profile.
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].CacheLen() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("gossip did not spread under chaos: node1 cache=%d", nodes[1].CacheLen())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Several nodes query for the common file; all must resolve.
	for _, i := range []int{1, 7, 19} {
		hits, qs, err := nodes[i].Query(context.Background(), "common carol", 1)
		if err != nil {
			t.Fatal(err)
		}
		requireQueryAccounting(t, qs)
		if len(hits) == 0 {
			t.Fatalf("node %d query failed under chaos: %+v", i, qs)
		}
	}
	// Quiesce the gossip before checking accounting (Close is
	// idempotent; cleanup closes again harmlessly).
	for _, n := range nodes {
		n.Close()
	}
	requireNetInvariant(t, nw)
}
