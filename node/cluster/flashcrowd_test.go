package cluster

// The cluster flash-crowd acceptance test: ten fair-admission nodes,
// each with a sync client to the shed-state service, and a heavy
// requester that ROTATES its queries across all of them. To any single
// node the rotator looks light — below its local fair share — so
// per-node fair admission admits it; only the cluster-merged demand
// view exposes its true appetite. The test asserts the three
// robustness postures in sequence:
//
//  1. service up: the rotator is shed cluster-wide while in-capacity
//     requesters keep >= 90% satisfaction;
//  2. service killed mid-run: every node degrades to local-only
//     shedding (fallback counters move, light requesters stay
//     protected from the local floods, the rotator sneaks back in —
//     the measurable cost of losing the cluster view);
//  3. service restarted: nodes re-converge and the rotator's
//     cluster-wide demand is rebuilt under the fresh epoch.

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/node"
	"repro/node/memnet"
)

// probeOutcome classifies one raw probe exchange (mirrors the node
// package's flash-crowd battery; requesters are raw memnet endpoints so
// the test controls demand precisely).
type probeOutcome int

const (
	probeLost probeOutcome = iota
	probeServed
	probeRefused
)

// rawProbe sends req from conn and waits for its correlated reply.
// Errors read as probeLost so it is safe off the test goroutine.
func rawProbe(conn *memnet.Conn, server netip.AddrPort, req wire.Message, timeout time.Duration) probeOutcome {
	pkt, err := wire.Encode(req)
	if err != nil {
		return probeLost
	}
	if _, err := conn.WriteTo(pkt, net.UDPAddrFromAddrPort(server)); err != nil {
		return probeLost
	}
	buf := make([]byte, wire.MaxPacket)
	conn.SetReadDeadline(time.Now().Add(timeout))
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			return probeLost
		}
		msg, err := wire.Decode(buf[:n])
		if err != nil || msg.ID() != req.ID() {
			continue
		}
		switch msg.(type) {
		case *wire.Busy:
			return probeRefused
		case *wire.QueryHit, *wire.Pong:
			return probeServed
		default:
			return probeLost
		}
	}
}

// phaseRates accumulates probe outcomes per measurement phase:
// index 1 = service up, 2 = local fallback (0 discards warmups and
// transitions).
type phaseRates struct {
	sent, served [3]atomic.Int64
}

func (p *phaseRates) record(phase int32, out probeOutcome) {
	if phase <= 0 {
		return
	}
	p.sent[phase].Add(1)
	if out == probeServed {
		p.served[phase].Add(1)
	}
}

func (p *phaseRates) rate(phase int) (float64, int64) {
	sent := p.sent[phase].Load()
	if sent == 0 {
		return 0, 0
	}
	return float64(p.served[phase].Load()) / float64(sent), sent
}

// TestClusterFlashCrowdRotatingRequester is the PR's acceptance
// scenario. ~3s of wall clock: skipped in -short runs.
func TestClusterFlashCrowdRotatingRequester(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster flash crowd runs ~3s of wall clock")
	}
	const (
		slots   = 10
		measure = 600 * time.Millisecond
	)
	nw := memnet.New(4242)
	nw.SetDefaultProfile(memnet.LinkProfile{Latency: 200 * time.Microsecond})

	// The shed-state service; its address moves on restart, so clients
	// dial through a shared slot.
	var svcAddr atomic.Value // netip.AddrPort
	ln := nw.ListenStream()
	svc, err := Serve(ln, ServiceConfig{Window: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svcAddr.Store(ln.AddrPort())

	// Ten server nodes, each with its sync client. Per-node capacity
	// is 15 queries per 100ms window; a local flood keeps each node
	// under pressure so the fair shed path is live the whole test.
	reg := obs.NewRegistry()
	var (
		targets []netip.AddrPort
		syncs   []*SyncClient
		servers []*node.Node
	)
	// stopNodes closes the sync clients before the nodes they drive.
	// Both Closes are idempotent: the test stops the nodes itself
	// before its last checks, and the defer covers an early failure.
	stopNodes := func() {
		for _, c := range syncs {
			c.Close()
		}
		for _, n := range servers {
			n.Close()
		}
	}
	defer stopNodes()
	for slot := 0; slot < slots; slot++ {
		n, err := node.New(nw.Listen(), node.Config{
			Files:              []string{"hotfile.iso"},
			MaxProbesPerSecond: 150,
			Admission:          node.AdmissionFair,
			AdmissionWindow:    100 * time.Millisecond,
			PingInterval:       time.Hour,
			Seed:               uint64(slot + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, n)
		c, err := NewSyncClient(n, ClientConfig{
			Name: "node-" + string(rune('a'+slot)),
			Dial: func() (net.Conn, error) {
				return nw.DialStream(svcAddr.Load().(netip.AddrPort))
			},
			Interval:   25 * time.Millisecond,
			Timeout:    40 * time.Millisecond,
			StaleAfter: 100 * time.Millisecond,
			Nonce:      uint64(slot + 1),
			Seed:       uint64(slot + 1),
			Metrics:    reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		syncs = append(syncs, c)
		targets = append(targets, n.Addr())
	}
	allConverged := func() bool {
		for _, c := range syncs {
			if c.Status().Fallback {
				return false
			}
		}
		return true
	}
	allFallback := func() bool {
		for _, c := range syncs {
			if !c.Status().Fallback {
				return false
			}
		}
		return true
	}
	waitFor(t, 5*time.Second, allConverged)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var phase atomic.Int32
	var msgID atomic.Uint64
	msgID.Store(1 << 40)

	// Per-node floods: fire-and-forget queries every 4ms (~25 per
	// admission window against a capacity of 15) from a node-local
	// address. They create the pressure; their own demand is locally
	// heavy, so plain per-node fairness sheds them in every posture.
	for i := 0; i < slots; i++ {
		conn := nw.Listen()
		t.Cleanup(func() { conn.Close() })
		target := targets[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(4 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					q := &wire.Query{MsgID: msgID.Add(1), Desired: 1, Keyword: "hotfile"}
					if pkt, err := wire.Encode(q); err == nil {
						conn.WriteTo(pkt, net.UDPAddrFromAddrPort(target))
					}
				}
			}
		}()
	}

	// The rotating heavy requester: ONE source address spraying queries
	// round-robin across all ten nodes. Per node it offers ~2 queries
	// per window — under the local fair share of ~5 — while its
	// cluster-wide appetite is ~10x that.
	heavyConn := nw.Listen()
	t.Cleanup(func() { heavyConn.Close() })
	heavyAddr := heavyConn.AddrPort()
	var heavy phaseRates
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := &wire.Query{MsgID: msgID.Add(1), Desired: 1, Keyword: "hotfile"}
			out := rawProbe(heavyConn, targets[i%slots], q, 30*time.Millisecond)
			heavy.record(phase.Load(), out)
			time.Sleep(4 * time.Millisecond)
		}
	}()

	// Ten in-capacity light requesters, one per node, each probing its
	// home node every 50ms (~2 per window).
	var light phaseRates
	for i := 0; i < slots; i++ {
		conn := nw.Listen()
		t.Cleanup(func() { conn.Close() })
		target := targets[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := &wire.Query{MsgID: msgID.Add(1), Desired: 1, Keyword: "hotfile"}
				out := rawProbe(conn, target, q, 30*time.Millisecond)
				light.record(phase.Load(), out)
				time.Sleep(50 * time.Millisecond)
			}
		}()
	}

	// Posture 1 — service up. Wait until the service's merged view has
	// the rotator pegged well past any node's fair share, then measure.
	heavyKey := node.RequesterKey(heavyAddr, svc.Salt())
	waitFor(t, 5*time.Second, func() bool { return svc.Estimate(heavyKey) >= 15 })
	phase.Store(1)
	time.Sleep(measure)
	phase.Store(0)

	// Posture 2 — service killed mid-run. Nodes must detect staleness
	// and degrade to local-only shedding.
	svc.Close()
	waitFor(t, 5*time.Second, allFallback)
	phase.Store(2)
	time.Sleep(measure)
	phase.Store(0)

	snap := reg.Snapshot()
	if got := snap.Counters["guess_node_cluster_fallbacks_total"]; got < slots {
		t.Errorf("fallbacks_total = %d after service kill, want >= %d", got, slots)
	}

	// Posture 3 — service restarted (fresh epoch: the cold service
	// supersedes the dead one). Nodes re-converge and the rotator's
	// cluster demand is rebuilt under the rotated salt.
	ln2 := nw.ListenStream()
	svc2, err := Serve(ln2, ServiceConfig{Window: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	svcAddr.Store(ln2.AddrPort())
	waitFor(t, 5*time.Second, allConverged)
	heavyKey2 := node.RequesterKey(heavyAddr, svc2.Salt())
	waitFor(t, 5*time.Second, func() bool { return svc2.Estimate(heavyKey2) >= 15 })

	close(stop)
	wg.Wait()
	stopNodes()
	if !nw.WaitIdle(2 * time.Second) {
		t.Fatal("network did not go idle after the flash crowd")
	}

	lightUp, lightUpN := light.rate(1)
	heavyUp, heavyUpN := heavy.rate(1)
	lightDown, lightDownN := light.rate(2)
	heavyDown, _ := heavy.rate(2)
	t.Logf("service up:   light %.0f%% of %d, rotator %.0f%% of %d",
		100*lightUp, lightUpN, 100*heavyUp, heavyUpN)
	t.Logf("service down: light %.0f%% of %d, rotator %.0f%%",
		100*lightDown, lightDownN, 100*heavyDown)

	if lightUpN < 50 {
		t.Fatalf("light requesters sent only %d probes in the service-up phase; pacing broken", lightUpN)
	}
	// 1. With the cluster view, in-capacity requesters stay served and
	// the rotator is shed despite looking light everywhere.
	if lightUp < 0.9 {
		t.Errorf("service up: in-capacity success %.2f below 0.9", lightUp)
	}
	if heavyUp > 0.3 {
		t.Errorf("service up: rotating heavy requester served %.2f, want mostly shed", heavyUp)
	}
	// 2. Without it, per-node fairness still protects light requesters
	// from the local floods — but the rotator's spread load gets
	// through, which is exactly the gap the service closes.
	if lightDown < 0.9 {
		t.Errorf("fallback: in-capacity success %.2f below 0.9", lightDown)
	}
	if heavyDown < heavyUp+0.3 {
		t.Errorf("fallback: rotator served %.2f vs %.2f with service up; local-only shedding should admit it", heavyDown, heavyUp)
	}

	// Every node shed queries (the floods) in all postures, and all ten
	// re-converged onto the restarted service.
	var shed int64
	for _, n := range servers {
		shed += n.Stats().ShedQueries
	}
	if shed == 0 {
		t.Error("no node shed any query under sustained overload")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["guess_node_cluster_reconnects_total"]; got < 2*slots {
		t.Errorf("reconnects_total = %d, want >= %d (initial convergence + post-restart)", got, 2*slots)
	}
}
