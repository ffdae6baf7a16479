package node

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/node/memnet"
)

// TestConcurrentQueries runs several queries from the same node in
// parallel while pings are active — the node must be race-free and
// every query must complete.
func TestConcurrentQueries(t *testing.T) {
	nw := memnet.New(11)
	var sharers []*Node
	for i := 0; i < 6; i++ {
		s := startMemNode(t, nw, Config{
			Files: []string{fmt.Sprintf("file-%d.dat", i), "shared hit.mp3"},
			Seed:  uint64(i + 2),
		})
		sharers = append(sharers, s)
	}
	querier := startMemNode(t, nw, Config{
		PingInterval: 20 * time.Millisecond,
		Seed:         1,
	})
	for _, s := range sharers {
		querier.AddPeer(s.Addr(), 2)
	}

	const queries = 8
	var wg sync.WaitGroup
	errs := make([]error, queries)
	found := make([]int, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hits, _, err := querier.Query(context.Background(), "shared hit", 1)
			errs[i] = err
			found[i] = len(hits)
		}(i)
	}
	wg.Wait()
	for i := 0; i < queries; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if found[i] == 0 {
			t.Fatalf("query %d found nothing", i)
		}
	}
}

// TestCloseDuringQuery: closing the node while queries run must not
// hang or panic; queries return what they have.
func TestCloseDuringQuery(t *testing.T) {
	nw := memnet.New(3)
	querier := startMemNode(t, nw, Config{ProbeTimeout: 50 * time.Millisecond})
	// Only dead peers: the query would walk all of them.
	for i := 0; i < 20; i++ {
		dead := nw.Listen()
		addr := dead.AddrPort()
		dead.Close()
		querier.AddPeer(addr, 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = querier.Query(context.Background(), "anything", 1)
	}()
	time.Sleep(60 * time.Millisecond)
	querier.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("query did not return after Close")
	}
}

// TestContextCancelStopsQuery: cancellation ends the probe walk
// promptly.
func TestContextCancelStopsQuery(t *testing.T) {
	nw := memnet.New(5)
	querier := startMemNode(t, nw, Config{ProbeTimeout: 100 * time.Millisecond})
	for i := 0; i < 50; i++ {
		dead := nw.Listen()
		addr := dead.AddrPort()
		dead.Close()
		querier.AddPeer(addr, 1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, stats, err := querier.Query(ctx, "anything", 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled query ran %v (stats %+v)", elapsed, stats)
	}
	if stats.Probes >= 50 {
		t.Fatal("cancellation did not stop the walk early")
	}
}
