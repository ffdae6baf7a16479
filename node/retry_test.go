package node

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/node/memnet"
)

// fakeBusyPeer runs a minimal protocol speaker that answers every
// request with Busy — an always-overloaded peer.
func fakeBusyPeer(t *testing.T, nw *memnet.Network) netip.AddrPort {
	t.Helper()
	c := nw.Listen()
	t.Cleanup(func() { c.Close() })
	go func() {
		buf := make([]byte, wire.MaxPacket)
		for {
			n, from, err := c.ReadFrom(buf)
			if err != nil {
				return
			}
			msg, err := wire.Decode(buf[:n])
			if err != nil {
				continue
			}
			pkt, err := wire.Encode(&wire.Busy{MsgID: msg.ID()})
			if err != nil {
				continue
			}
			c.WriteTo(pkt, from)
		}
	}()
	return c.AddrPort()
}

// TestBusyDemotionSuppressesThenEvicts: with BusyBackoff enabled a
// refusing peer is first demoted (kept in the cache but not probed),
// and only evicted at its third consecutive refusal.
func TestBusyDemotionSuppressesThenEvicts(t *testing.T) {
	nw := memnet.New(1)
	querier := startMemNode(t, nw, Config{
		ProbeTimeout: 50 * time.Millisecond,
		BusyBackoff:  40 * time.Millisecond,
		PingInterval: time.Hour,
	})
	busy := fakeBusyPeer(t, nw)
	querier.AddPeer(busy, 5)

	// First refusal: demoted, not evicted.
	_, qs, err := querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Refused != 1 {
		t.Fatalf("stats = %+v, want one refusal", qs)
	}
	if querier.CacheLen() != 1 {
		t.Fatal("busy peer evicted on first refusal despite BusyBackoff")
	}
	if querier.Stats().BusyBackoffs != 1 {
		t.Fatalf("BusyBackoffs = %d, want 1", querier.Stats().BusyBackoffs)
	}

	// While suppressed, the peer is not probed at all.
	_, qs, err = querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Probes != 0 {
		t.Fatalf("suppressed peer was probed: %+v", qs)
	}

	// After the backoff expires, the second refusal demotes again, for
	// twice as long.
	time.Sleep(60 * time.Millisecond)
	_, qs, err = querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Refused != 1 {
		t.Fatalf("stats = %+v, want a refusal after backoff expiry", qs)
	}
	if querier.CacheLen() != 1 {
		t.Fatal("busy peer evicted on second refusal")
	}
	if querier.Stats().BusyBackoffs != 2 {
		t.Fatalf("BusyBackoffs = %d, want 2", querier.Stats().BusyBackoffs)
	}

	// After the doubled backoff, the third refusal evicts.
	time.Sleep(100 * time.Millisecond)
	_, qs, err = querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Refused != 1 {
		t.Fatalf("stats = %+v, want a refusal after the doubled backoff", qs)
	}
	if querier.CacheLen() != 0 {
		t.Fatal("busy peer not evicted at its third refusal")
	}
}

// TestBusyWithoutBackoffEvictsImmediately pins the legacy no-backoff
// default the simulator models: first Busy drops the peer.
func TestBusyWithoutBackoffEvictsImmediately(t *testing.T) {
	nw := memnet.New(1)
	querier := startMemNode(t, nw, Config{
		ProbeTimeout: 50 * time.Millisecond,
		PingInterval: time.Hour,
	})
	busy := fakeBusyPeer(t, nw)
	querier.AddPeer(busy, 5)
	_, qs, err := querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Refused != 1 || querier.CacheLen() != 0 {
		t.Fatalf("no-backoff Busy did not evict: %+v cache=%d", qs, querier.CacheLen())
	}
}

// TestAdaptiveTimeoutShortensDeadDetection: after learning a fast RTT,
// the adaptive deadline detects a dead peer far sooner than the
// configured ProbeTimeout.
func TestAdaptiveTimeoutShortensDeadDetection(t *testing.T) {
	nw := memnet.New(1)
	nw.SetLatency(2 * time.Millisecond)
	sharer := startMemNode(t, nw, Config{PingInterval: time.Hour, Seed: 2})
	querier := startMemNode(t, nw, Config{
		ProbeTimeout:     800 * time.Millisecond,
		MaxProbeAttempts: 1,
		AdaptiveTimeout:  true,
		PingInterval:     time.Hour,
	})
	// Learn the network's RTT from a few pings.
	for i := 0; i < 4; i++ {
		ok, err := querier.PingPeer(context.Background(), sharer.Addr())
		if err != nil || !ok {
			t.Fatalf("ping %d: ok=%v err=%v", i, ok, err)
		}
	}

	dead := nw.Listen()
	deadAddr := dead.AddrPort()
	dead.Close()
	querier.AddPeer(deadAddr, 1)

	start := time.Now()
	_, qs, err := querier.Query(context.Background(), "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if qs.Dead != 1 {
		t.Fatalf("dead peer not detected: %+v", qs)
	}
	// The clamp floor is ProbeTimeout/8 = 100ms; anything well under
	// the 800ms fixed deadline proves the EWMA took over.
	if elapsed > 400*time.Millisecond {
		t.Fatalf("adaptive timeout did not shorten detection: %v", elapsed)
	}
}

// TestRetryRecoversFromSingleDrop: a link that drops exactly the first
// packet forces one retry which then succeeds, and the retry is
// accounted in both query and node stats.
func TestRetryRecoversFromSingleDrop(t *testing.T) {
	nw := memnet.New(1)
	sharer := startMemNode(t, nw, Config{
		Files:        []string{"second try.txt"},
		PingInterval: time.Hour,
		Seed:         2,
	})
	querier := startMemNode(t, nw, Config{
		ProbeTimeout:     40 * time.Millisecond,
		MaxProbeAttempts: 3,
		RetryBackoff:     5 * time.Millisecond,
		PingInterval:     time.Hour,
	})
	// Drop the querier's first transmission only.
	nw.SetLink(querier.Addr(), sharer.Addr(), memnet.LinkProfile{Loss: 1})
	go func() {
		time.Sleep(60 * time.Millisecond)
		nw.ClearLink(querier.Addr(), sharer.Addr())
	}()
	querier.AddPeer(sharer.Addr(), 1)

	hits, qs, err := querier.Query(context.Background(), "second try", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("retry did not recover: %+v", qs)
	}
	if qs.Retries < 1 {
		t.Fatalf("retry not counted: %+v", qs)
	}
	if querier.Stats().Retries < 1 {
		t.Fatal("node retry counter not incremented")
	}
}
