package node

import (
	"context"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/wire"
	"repro/node/memnet"
)

// TestLoopbackFromMatchesAddr: over a real socket, the address the
// serve loop reads a peer's datagram from is the address that peer's
// Addr() reports, so introduction caches a peer under the name it goes
// by, and a node recognises itself.
func TestLoopbackFromMatchesAddr(t *testing.T) {
	a := startNode(t, Config{IntroProb: 1})
	b := startNode(t, Config{})
	if ok, err := b.PingPeer(context.Background(), a.Addr()); err != nil || !ok {
		t.Fatalf("ping: %v, %v", ok, err)
	}
	// a introduced the sender with certainty: what it cached is b.
	if got := a.CacheAddrs(); !slices.Equal(got, []netip.AddrPort{b.Addr()}) {
		t.Fatalf("a cached %v after a ping from %v", got, b.Addr())
	}
	// a pinging itself sees its own Addr() as the sender and, even at
	// IntroProb 1, does not introduce itself to itself.
	if ok, err := a.PingPeer(context.Background(), a.Addr()); err != nil || !ok {
		t.Fatalf("self ping: %v, %v", ok, err)
	}
	if slices.Contains(a.CacheAddrs(), a.Addr()) {
		t.Fatalf("a cached its own address %v", a.Addr())
	}
}

// TestDualStackFromIsUnmapped: a dual-stack socket reports an IPv4 peer
// as ::ffff:a.b.c.d; the node must see it under the plain IPv4 address
// the peer itself reports, and be able to answer it.
func TestDualStackFromIsUnmapped(t *testing.T) {
	a, err := Listen("[::]:0", Config{IntroProb: 1})
	if err != nil {
		t.Skipf("no dual-stack socket here: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b := startNode(t, Config{ProbeTimeout: 100 * time.Millisecond, MaxProbeAttempts: 1})
	target := netip.AddrPortFrom(b.Addr().Addr(), a.Addr().Port()) // a, by its IPv4 loopback name
	if ok, err := b.PingPeer(context.Background(), target); err != nil || !ok {
		t.Skipf("the dual-stack socket takes no IPv4 here: %v, %v", ok, err)
	}
	if got := a.CacheAddrs(); !slices.Equal(got, []netip.AddrPort{b.Addr()}) {
		t.Fatalf("a cached %v after a ping from %v", got, b.Addr())
	}
}

// oddTransport is a memnet endpoint that claims a local address which
// is no AddrPort.
type oddTransport struct{ *memnet.Conn }

func (oddTransport) LocalAddr() net.Addr {
	return &net.UnixAddr{Name: "/tmp/guess.sock", Net: "unixgram"}
}

func TestNewRejectsTransportWithoutAddrPort(t *testing.T) {
	conn := memnet.New(1).Listen()
	defer conn.Close()
	if n, err := New(oddTransport{conn}, Config{}); err == nil {
		n.Close()
		t.Fatal("New accepted a transport whose local address is not an AddrPort")
	}
}

// flightLog is a flight owner that reports each finish on a channel.
type flightLog chan txOutcome

func (l flightLog) finish(_ wire.Message, out txOutcome, _ time.Time) { l <- out }

// TestFlightTimerReuse: one flight carries request after request on one
// timer. A deadline that fired while its reply was being taken must not
// time out the next request, and a backoff that ends must still send
// the next transmission.
func TestFlightTimerReuse(t *testing.T) {
	nw := memnet.New(1)
	n := startMemNode(t, nw, Config{
		// Long enough that the test's own steps between a launch and
		// its checks never outlast a deadline.
		ProbeTimeout:     250 * time.Millisecond,
		MaxProbeAttempts: 2,
		RetryBackoff:     10 * time.Millisecond,
		PingInterval:     time.Hour,
	})
	peer := nw.Listen() // answers only when the test says so
	defer peer.Close()
	heard := func() uint64 {
		t.Helper()
		buf := make([]byte, wire.MaxPacket)
		peer.SetReadDeadline(time.Now().Add(2 * time.Second))
		c, _, err := peer.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("the peer heard nothing: %v", err)
		}
		m, err := wire.Decode(buf[:c])
		if err != nil {
			t.Fatal(err)
		}
		return m.ID()
	}
	held := func(f *flight) bool {
		n.pendingMu.Lock()
		defer n.pendingMu.Unlock()
		return n.pending[f.id] == f
	}
	// awaiting reports whether f is pending on its first transmission's
	// reply: not timed out, not pausing for a retry.
	awaiting := func(f *flight) bool {
		n.pendingMu.Lock()
		defer n.pendingMu.Unlock()
		return n.pending[f.id] == f && f.attempt == 1 && !f.pausing
	}

	log := make(flightLog, 4)
	req := &wire.Ping{}
	f := &flight{n: n, owner: log, req: req, target: peer.AddrPort()}
	for round := 0; round < 2; round++ {
		req.MsgID = n.msgID.Add(1)
		if _, ended := n.launch(f); ended {
			t.Fatal("launch ended the flight")
		}
		if id := heard(); id != req.MsgID {
			t.Fatalf("round %d: the peer heard %d, want %d", round, id, req.MsgID)
		}
		n.deliver(&wire.Pong{MsgID: req.MsgID}, time.Now())
		if out := <-log; out != txReply {
			t.Fatalf("round %d: finished %v, want the reply", round, out)
		}
		// The deadline's fire, had it begun while the reply was being
		// taken, finds the flight held: it does nothing.
		f.expire()
		if len(log) != 0 || held(f) {
			t.Fatalf("round %d: a leftover fire acted on a taken flight", round)
		}
		// The same timer now carries the next request; the old fire,
		// if it only gets the lock now, must leave it alone.
		req.MsgID = n.msgID.Add(1)
		if _, ended := n.launch(f); ended {
			t.Fatal("launch ended the flight")
		}
		first := heard()
		f.expire()
		if len(log) != 0 || !awaiting(f) {
			t.Fatalf("round %d: the next request timed out on its predecessor's deadline", round)
		}
		// Unanswered, it times out, pauses, and is sent again with the
		// same ID; unanswered again, it ends timed out.
		if again := heard(); again != first {
			t.Fatalf("round %d: the retransmission carried %d, want %d", round, again, first)
		}
		if out := <-log; out != txTimeout {
			t.Fatalf("round %d: finished %v, want a timeout", round, out)
		}
		if f.retries != round+1 {
			t.Fatalf("round %d: %d retries, want %d", round, f.retries, round+1)
		}
	}
	if st := n.Stats(); st.Retries != 2 || st.LateReplies != 0 || st.DupReplies != 0 {
		t.Fatalf("stats %+v, want 2 retries and no stray reply", st)
	}
}

// TestFlightTimerArmedOnce: a reply leaves the flight's timer armed for
// the deadline it answered, and the next request re-arms it only if that
// fire would come too late. A timer armed too early must not time the
// next request out before its own deadline, and one armed too late must
// not hold it past its own.
func TestFlightTimerArmedOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		// gap is how long after the quick reply the next request leaves;
		// the next request's deadline must pass within [lo, hi) of it.
		gap, lo, hi time.Duration
	}{
		// The timer stays armed for the first request's deadline, 60ms
		// before the second's: that fire must re-arm for the rest.
		{"armed-early", Config{ProbeTimeout: 150 * time.Millisecond}, 60 * time.Millisecond, 150 * time.Millisecond, time.Second},
		// The quick reply brings the adaptive deadline down to its floor
		// of ProbeTimeout/8, 50ms, far before the 400ms the timer is
		// armed for: the timer must be re-armed.
		{"adaptive-shorter", Config{ProbeTimeout: 400 * time.Millisecond, AdaptiveTimeout: true}, 0, 50 * time.Millisecond, 300 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw := memnet.New(1)
			cfg := c.cfg
			cfg.MaxProbeAttempts, cfg.PingInterval = 1, time.Hour
			n := startMemNode(t, nw, cfg)
			quick, silent := nw.Listen(), nw.Listen()
			defer quick.Close()
			defer silent.Close()
			log := make(flightLog, 2)
			req := &wire.Ping{MsgID: n.msgID.Add(1)}
			f := &flight{n: n, owner: log, req: req, target: quick.AddrPort()}
			if _, ended := n.launch(f); ended {
				t.Fatal("launch ended the flight")
			}
			n.deliver(&wire.Pong{MsgID: req.MsgID}, time.Now())
			if out := <-log; out != txReply {
				t.Fatalf("finished %v, want the reply", out)
			}
			time.Sleep(c.gap)

			req.MsgID, f.target = n.msgID.Add(1), silent.AddrPort()
			if _, ended := n.launch(f); ended {
				t.Fatal("launch ended the flight")
			}
			n.pendingMu.Lock()
			sent := f.sentAt
			n.pendingMu.Unlock()
			select {
			case out := <-log:
				if out != txTimeout {
					t.Fatalf("finished %v, want a timeout", out)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the request to the silent peer never timed out")
			}
			if waited := time.Since(sent); waited < c.lo || waited >= c.hi {
				t.Fatalf("timed out %v after it was sent, want within [%v, %v)", waited, c.lo, c.hi)
			}
		})
	}
}

// TestAbortWhileHeld: an abort that finds the flight held by the
// goroutine stepping it ends the flight at that goroutine's next
// launch, which sends nothing.
func TestAbortWhileHeld(t *testing.T) {
	nw := memnet.New(1)
	n := startMemNode(t, nw, Config{PingInterval: time.Hour})
	peer := nw.Listen()
	defer peer.Close()
	log := make(flightLog, 1)
	f := &flight{n: n, owner: log, req: &wire.Ping{MsgID: n.msgID.Add(1)}, target: peer.AddrPort()}
	n.abort(f)
	if len(log) != 0 {
		t.Fatal("an abort finished a flight it did not take")
	}
	if out, ended := n.launch(f); !ended || out != txAborted {
		t.Fatalf("launch after an abort: %v, ended %v; want aborted", out, ended)
	}
	peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := peer.ReadFromUDPAddrPort(make([]byte, wire.MaxPacket)); err == nil {
		t.Fatal("an aborted flight was sent")
	}
}

// TestQueryScratchBounded: concurrent queries each get a scratch of
// their own, the node keeps at most maxScratches of them afterwards,
// a serial caller gets the same one back every time, and none keeps
// more candidate storage than the query cache's retention bound.
func TestQueryScratchBounded(t *testing.T) {
	nw := memnet.New(1)
	sharer := startMemNode(t, nw, Config{Files: []string{"wanted.txt"}})
	querier := startMemNode(t, nw, Config{PingInterval: time.Hour})
	querier.AddPeer(sharer.Addr(), 1)

	var wg sync.WaitGroup
	for i := 0; i < 3*maxScratches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if hits, _, err := querier.Query(context.Background(), "wanted", 1); err != nil || len(hits) != 1 {
				t.Errorf("hits=%v err=%v", hits, err)
			}
		}()
	}
	wg.Wait()
	idle := func() []*queryScratch {
		querier.mu.Lock()
		defer querier.mu.Unlock()
		return slices.Clone(querier.scratches)
	}
	before := idle()
	if len(before) == 0 || len(before) > maxScratches {
		t.Fatalf("%d idle scratches after %d concurrent queries, want 1..%d", len(before), 3*maxScratches, maxScratches)
	}
	for i := 0; i < 5; i++ {
		if hits, _, err := querier.Query(context.Background(), "wanted", 1); err != nil || len(hits) != 1 {
			t.Fatalf("hits=%v err=%v", hits, err)
		}
	}
	if after := idle(); !slices.Equal(after, before) {
		t.Fatal("serial queries did not reuse the idle scratches")
	}

	// A query that saw more candidates than an idle scratch may hold on
	// to is kept without them.
	// An idle scratch keeps room for MaxRetainedCandidates candidates
	// and a seen-set bitmap of 16 KiB. big's candidates are 512 apart,
	// one to a bitmap block, so they overflow both.
	const bound, seenBound = policy.MaxRetainedCandidates, 16 << 10
	big := new(queryScratch)
	big.qc.Reset(policy.SelRandom, simrng.New(1), 1)
	for id := 2; id <= bound+2; id++ {
		big.qc.Add(cache.Entry{Addr: cache.PeerID(id * 512)})
	}
	// held is what big has room for: bytes of seen-set bitmap, and
	// candidates in its selector's buffers.
	held := func() (seen, buffered int) {
		qc := reflect.ValueOf(&big.qc).Elem()
		sel := qc.FieldByName("sel")
		blocks := qc.FieldByName("blocks")
		return blocks.Cap() * int(blocks.Type().Elem().Size()), sel.FieldByName("pool").Cap() + sel.FieldByName("heap").Cap()
	}
	if seen, buffered := held(); seen <= seenBound || buffered <= bound {
		t.Fatalf("%d candidates in a %d-byte bitmap and room for %d buffered", bound+1, seen, buffered)
	}
	querier.mu.Lock()
	querier.scratches = querier.scratches[:0]
	querier.queries = append(querier.queries, big) // in use, as getScratch leaves it
	querier.mu.Unlock()
	querier.putScratch(big)
	if got := idle(); len(got) != 1 || got[0] != big {
		t.Fatal("an oversized scratch was not kept")
	}
	if seen, buffered := held(); seen > seenBound || buffered > bound {
		t.Fatalf("the kept scratch has a %d-byte bitmap (bound %d) and room for %d buffered candidates (bound %d)", seen, seenBound, buffered, bound)
	}
}

// The ceilings below pin the live path's garbage where scheduler noise
// cannot reach it. Each is a little above what the path costs now and
// below what it cost with a reply channel per probe and a fresh message
// per decoded datagram; that figure is beside each. testing.AllocsPerRun
// counts every goroutine's allocations, so the node's serve loop is
// included.

func TestServeAllocCeilings(t *testing.T) {
	nw := memnet.New(1)
	srv := serveTarget(t, nw)
	q := newRawRequester(nw, srv.Addr())
	defer q.conn.Close()
	query := &wire.Query{Desired: 1, Keyword: "hotfile"}
	ping := &wire.Ping{}
	for _, c := range []struct {
		name    string
		want    wire.Type
		req     func() wire.Message
		ceiling float64
	}{
		// Most of these are the raw requester's own (encode, the boxed
		// sender, decoding the reply); memnet copies a datagram into a
		// pooled buffer, and the node decodes into its serve loop's
		// Decoder, so a query costs it the keyword.
		{"query", wire.TypeQueryHit, func() wire.Message { q.next++; query.MsgID = q.next; return query }, 9}, // now 8, before 11
		{"ping", wire.TypePong, func() wire.Message { q.next++; ping.MsgID = q.next; return ping }, 6},        // now 5, before 8
	} {
		got := testing.AllocsPerRun(500, func() {
			if typ, err := q.roundTrip(c.req()); err != nil || typ != c.want {
				t.Fatalf("%s: reply %v, %v", c.name, typ, err)
			}
		})
		if got > c.ceiling {
			t.Errorf("one served %s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

func TestQueryAllocCeiling(t *testing.T) {
	f := newBenchFleet(t, 8, 10, 7)
	rng := simrng.New(7)
	pop := dist.MustZipf(len(f.keywords), 1)
	for i := 0; i < 300; i++ { // warm: every origin has a scratch, caches are full
		f.query(t, rng, pop)
	}
	// Seven of eight nodes are in every link cache, so a query is one
	// probe (1.05 on average): the decoded query's keyword 1, the hit's
	// result name 1 and the slice of hits 1 (memnet copies each datagram
	// into a pooled buffer).
	if got := testing.AllocsPerRun(400, func() { f.query(t, rng, pop) }); got > 4 { // now 3, before 11
		t.Errorf("one Query on a warm 8-node fleet: %.1f allocs, ceiling 4", got)
	}
}
