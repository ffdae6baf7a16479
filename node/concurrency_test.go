package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
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

// TestQueryAbortStress: many queries whose deadlines, and a Close
// halfway through, land anywhere in the probe cycle — while a request
// is out, during a retry pause, or as its reply is being taken. Every
// call returns, every probe is accounted for but the one an abort cut
// short, idle scratches stay bounded, and no goroutine is left.
func TestQueryAbortStress(t *testing.T) {
	leakCheck(t)
	nw := memnet.New(17)
	nw.SetDefaultProfile(memnet.LinkProfile{
		Loss:    0.2,
		Latency: 500 * time.Microsecond,
		Jitter:  dist.Uniform{Lo: 0, Hi: 0.002},
	})
	querier := startMemNode(t, nw, Config{
		ProbeTimeout:     4 * time.Millisecond,
		MaxProbeAttempts: 2,
		RetryBackoff:     time.Millisecond,
		PingInterval:     5 * time.Millisecond,
		// Timeouts feed a breaker that never opens, instead of evicting:
		// the candidates stay the same all run.
		BreakerThreshold: 64,
		Seed:             3,
	})
	for i := 0; i < 12; i++ {
		s := startMemNode(t, nw, Config{
			Files:        []string{fmt.Sprintf("file-%d.dat", i)},
			PingInterval: time.Hour,
			Seed:         uint64(i + 4),
		})
		querier.AddPeer(s.Addr(), 1)
	}
	for i := 0; i < 4; i++ {
		deadCachedPeer(t, nw, querier)
	}

	const callers = 8
	var wg sync.WaitGroup
	var queries, cut atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !querier.Draining(); i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+(c*7+i*3)%15)*time.Millisecond)
				_, qs, err := querier.Query(ctx, "file", 1+i%3)
				aborted := ctx.Err() != nil || querier.Draining()
				cancel()
				if err != nil {
					if !errors.Is(err, errClosed) {
						t.Errorf("query: %v", err)
					}
					return
				}
				open := qs.Probes - (qs.Good + qs.Dead + qs.Refused)
				if open < 0 || open > 1 || open == 1 && !aborted {
					t.Errorf("query stats %+v (aborted %v): %d probes unaccounted for", qs, aborted, open)
					return
				}
				queries.Add(1)
				cut.Add(int64(open))
			}
		}(c)
	}
	time.Sleep(150 * time.Millisecond)
	querier.Close()
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("queries did not return after Close")
	}
	t.Logf("%d queries, %d cut short by an abort", queries.Load(), cut.Load())
	if cut.Load() == 0 {
		t.Fatal("no abort landed while a probe was in the air")
	}
	querier.mu.Lock()
	idle := len(querier.scratches)
	querier.mu.Unlock()
	if idle > maxScratches {
		t.Fatalf("%d idle scratches, at most %d allowed", idle, maxScratches)
	}
}
