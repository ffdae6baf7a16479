package main

// The scripted outage drill behind -smoke (CI's `make cluster-smoke`):
// a three-node memnet cluster synced to a shed-state service, driven
// through the three robustness postures — converged, service killed
// (every node must degrade to local-only shedding), service restarted
// (every node must re-converge). Assertions read the same metric
// counters an operator would: guess_node_cluster_fallbacks_total and
// friends out of the shared registry.

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"time"

	guess "repro"
	"repro/node"
	"repro/node/cluster"
	"repro/node/memnet"
)

const smokeSlots = 3

func runSmoke(verbose bool) error {
	logf := func(format string, a ...any) {}
	if verbose {
		logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "smoke: "+format+"\n", a...)
		}
	}
	nw := memnet.New(1)
	reg := guess.NewMetricsRegistry()

	// The service; its address moves on restart, so clients dial
	// through a shared slot.
	var svcAddr atomic.Value // netip.AddrPort
	startService := func() (*cluster.Service, error) {
		ln := nw.ListenStream()
		svc, err := cluster.Serve(ln, cluster.ServiceConfig{
			Window:  200 * time.Millisecond,
			Metrics: reg,
			Logf:    logf,
		})
		if err != nil {
			return nil, err
		}
		svcAddr.Store(ln.AddrPort())
		return svc, nil
	}
	svc, err := startService()
	if err != nil {
		return err
	}
	defer svc.Close()

	var clients [smokeSlots]*cluster.SyncClient
	var servers [smokeSlots]*node.Node
	for slot := range servers {
		n, err := node.New(nw.Listen(), node.Config{
			Files:              []string{"smoke.txt"},
			MaxProbesPerSecond: 100,
			Admission:          node.AdmissionFair,
			AdmissionWindow:    100 * time.Millisecond,
			PingInterval:       time.Hour,
			Seed:               uint64(slot + 1),
		})
		if err != nil {
			return err
		}
		defer n.Close()
		c, err := cluster.NewSyncClient(n, cluster.ClientConfig{
			Name: fmt.Sprintf("smoke-%d", slot),
			Dial: func() (net.Conn, error) {
				return nw.DialStream(svcAddr.Load().(netip.AddrPort))
			},
			Interval:   25 * time.Millisecond,
			StaleAfter: 100 * time.Millisecond,
			Nonce:      uint64(slot + 1),
			Metrics:    reg,
		})
		if err != nil {
			return err
		}
		// Deferred after its node's Close, so it runs first: the
		// client stops driving the node before the node closes.
		defer c.Close()
		servers[slot], clients[slot] = n, c
	}

	allMatch := func(fallback bool) func() bool {
		return func() bool {
			for _, c := range clients {
				if c.Status().Fallback != fallback {
					return false
				}
			}
			return true
		}
	}
	counter := func(name string) uint64 { return reg.Snapshot().Counters[name] }

	// Posture 1: every node converges onto the service's epoch.
	if err := waitFor("initial convergence", allMatch(false)); err != nil {
		return err
	}
	logf("all %d nodes converged (epoch %d)", smokeSlots, svc.Epoch())

	// Demand flows end to end: one query through a node must surface in
	// the service's merged estimate for that requester.
	querier, err := node.New(nw.Listen(), node.Config{Seed: 99, PingInterval: time.Hour})
	if err != nil {
		return err
	}
	defer querier.Close()
	querier.AddPeer(servers[0].Addr(), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hits, _, err := querier.Query(ctx, "smoke", 1)
	cancel()
	if err != nil {
		return fmt.Errorf("smoke query: %w", err)
	}
	if len(hits) == 0 {
		return fmt.Errorf("smoke query found no hits")
	}
	key := node.RequesterKey(querier.Addr(), svc.Salt())
	if err := waitFor("demand in the aggregate", func() bool { return svc.Estimate(key) > 0 }); err != nil {
		return err
	}
	logf("querier demand visible in the aggregate (estimate %d)", svc.Estimate(key))

	// Posture 2: kill the service mid-run. Every node must detect the
	// outage and fall back to local-only shedding, observably.
	svc.Close()
	if err := waitFor("fallback after service kill", allMatch(true)); err != nil {
		return err
	}
	if got := counter("guess_node_cluster_fallbacks_total"); got < smokeSlots {
		return fmt.Errorf("fallbacks_total = %d after service kill, want >= %d", got, smokeSlots)
	}
	logf("all nodes in local fallback (fallbacks_total %d)", counter("guess_node_cluster_fallbacks_total"))

	// Posture 3: restart the service; every node must re-converge.
	svc2, err := startService()
	if err != nil {
		return err
	}
	defer svc2.Close()
	if err := waitFor("re-convergence after restart", allMatch(false)); err != nil {
		return err
	}
	if got := counter("guess_node_cluster_reconnects_total"); got < 2*smokeSlots {
		return fmt.Errorf("reconnects_total = %d, want >= %d", got, 2*smokeSlots)
	}

	fmt.Printf("cluster smoke ok: %d nodes converged, fell back on outage (fallbacks %d), re-converged on restart (reconnects %d)\n",
		smokeSlots,
		counter("guess_node_cluster_fallbacks_total"),
		counter("guess_node_cluster_reconnects_total"))
	return nil
}

// waitFor polls cond for up to 10s, failing with what it was waiting
// on.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("smoke: timed out waiting for %s", what)
}
