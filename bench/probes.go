package main

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/wire"
	"repro/node"
	"repro/node/memnet"
)

// The probes: fixed loops over one layer's exported functions, on
// inputs shaped like the workloads'. They are the layer's cost with
// nothing else in the way, which is what a change to the layer moves
// first; the end-to-end metric it should move next is in README.md.

// sink keeps the compiler from discarding a probe's result.
var sink uint64

// nsPerOp times batches of n calls to body's loop and returns the
// median batch's nanoseconds per call.
func nsPerOp(n, batches int, body func(n int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		body(n)
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// probeSimrng is the cost of one simrng.Uint64 in nanoseconds.
func probeSimrng(rng *simrng.RNG, n int) float64 {
	return nsPerOp(n, probeBatches, func(n int) {
		var x uint64
		for i := 0; i < n; i++ {
			x ^= rng.Uint64()
		}
		sink += x
	})
}

const probeBatches = 3

// runProbes measures every probe metric into r.
func runProbes(o runOpts, r *runResult) error {
	scale := 1
	if o.quick {
		scale = 200 // the smoke test wants the code run, not the numbers
	}
	iters := func(n int) int { return max(n/scale, 50) }
	const batches = probeBatches

	// simrng: the calibration figure. Numbers from two boxes can be
	// normalised by the ratio of their simrng.uint64_ns.
	rng := simrng.New(o.seed)
	r.set("simrng.uint64_ns", probeSimrng(rng, iters(4_000_000)))

	// eventq: a warm heap with pops and pushes interleaved, at the
	// depth of a paper-default run and of the 100k-peer run.
	for _, c := range []struct {
		name  string
		depth int
	}{{"eventq.pushpop_ns.1k", 1 << 10}, {"eventq.pushpop_ns.100k", 100_000}} {
		var q eventq.Queue[int]
		for i := 0; i < c.depth; i++ {
			q.Push(float64(rng.Intn(977)), i)
		}
		r.set(c.name, nsPerOp(iters(300_000), batches, func(n int) {
			for i := 0; i < n; i++ {
				t, v, _ := q.Pop()
				q.Push(t+float64(v%31)+1, v)
			}
		}))
	}
	const shards = 4
	sq := eventq.NewSharded[int](shards)
	for i := 0; i < 100_000; i++ {
		sq.Push(i%shards, float64(rng.Intn(977)), i)
	}
	r.set("eventq.sharded_pushpop_ns.100k", nsPerOp(iters(300_000), batches, func(n int) {
		for i := 0; i < n; i++ {
			t, v, _ := sq.Pop()
			sq.Push(v%shards, t+float64(v%31)+1, v)
		}
	}))

	// cache: the per-probe mutation mix, below and above the 128-entry
	// boundary between the flat and the map index.
	for _, c := range []struct {
		name     string
		capacity int
	}{{"cache.add_remove_ns.cap100", 100}, {"cache.add_remove_ns.cap200", 200}} {
		lc := fullCache(c.capacity)
		floor := c.capacity * 3 / 4
		r.set(c.name, nsPerOp(iters(300_000), batches, func(n int) {
			for i := 0; i < n; i++ {
				addr := cache.PeerID(i % 4096)
				if !lc.Has(addr) && !lc.Full() {
					lc.Add(cache.Entry{Addr: addr})
				}
				lc.Touch(addr, float64(i))
				if i%3 == 0 {
					lc.Remove(cache.PeerID((i * 7) % 4096))
				}
				if lc.Len() < floor {
					lc.Add(cache.Entry{Addr: cache.PeerID(i%4096 + 5000)})
				}
			}
		}))
	}
	lc := fullCache(100)
	r.set("cache.touch_ns", nsPerOp(iters(1_000_000), batches, func(n int) {
		for i := 0; i < n; i++ {
			lc.Touch(cache.PeerID(i%100+1), float64(i))
		}
	}))

	// policy: insertion under eviction pressure into a full 100-entry
	// cache, pong construction (5 of 100), and the query candidate
	// stream.
	for _, c := range []struct {
		name string
		ev   policy.Eviction
	}{{"policy.insert_ns.random", policy.EvRandom}, {"policy.insert_ns.lru", policy.EvLRU}, {"policy.insert_ns.lr", policy.EvLR}} {
		lc := fullCache(100)
		next := 100_000
		r.set(c.name, nsPerOp(iters(200_000), batches, func(n int) {
			for i := 0; i < n; i++ {
				next++
				policy.Insert(rng, c.ev, lc, cache.Entry{Addr: cache.PeerID(next), TS: float64(next), NumRes: int32(next % 50)})
			}
		}))
	}
	entries := fullCache(100).Entries()
	r.set("policy.pickn_ns", nsPerOp(iters(200_000), batches, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(policy.PickN(rng, policy.SelRandom, entries, 5)))
		}
	}))
	sel := policy.NewSelector(policy.SelRandom, rng)
	r.set("policy.selector_next_ns", nsPerOp(iters(3_000), batches, func(n int) {
		for i := 0; i < n; i++ {
			sel.Reset(policy.SelRandom, rng)
			for _, e := range entries {
				sel.Add(e)
			}
			for {
				if _, ok := sel.Next(); !ok {
					break
				}
			}
		}
	})/float64(len(entries)))

	// overlay: one connectivity sample of the 100k-peer run.
	const wccNodes, wccDegree = 100_000, 32
	nodes := max(wccNodes/scale, 100)
	edges := make([]int32, nodes*wccDegree)
	for i := range edges {
		edges[i] = int32(rng.Intn(nodes))
	}
	var wcc overlay.WCCScratch
	r.set("overlay.wcc_ms", nsPerOp(1, batches, func(int) {
		wcc.Reset(nodes)
		for i, to := range edges {
			wcc.Union(i/wccDegree, int(to))
		}
		sink += uint64(wcc.Largest())
	})/1e6)

	// frame: a sync message and a large sweep result.
	for _, c := range []struct {
		name string
		size int
	}{{"frame.write_read_ns.1k", 1 << 10}, {"frame.write_read_ns.64k", 64 << 10}} {
		payload := make([]byte, c.size)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		var buf bytes.Buffer
		var ferr error
		r.set(c.name, nsPerOp(iters(200_000_000/(c.size+1000)), batches, func(n int) {
			for i := 0; i < n; i++ {
				buf.Reset()
				if err := frame.Write(&buf, payload, c.size); err != nil {
					ferr = err
				}
				got, err := frame.Read(&buf, c.size)
				if err != nil || len(got) != c.size {
					ferr = fmt.Errorf("frame round trip: %v (%d bytes)", err, len(got))
				}
			}
		}))
		if ferr != nil {
			return ferr
		}
	}

	if err := probeWire(r, iters, batches); err != nil {
		return err
	}
	if err := probeExperiments(o, r); err != nil {
		return err
	}

	// obs: a counter on the node's serve path, and one trace event
	// through the simulator's JSON Lines writer.
	var ctr obs.Counter // unregistered: the probe is the increment, not the registry
	r.set("obs.counter_inc_ns", nsPerOp(iters(2_000_000), batches, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}))
	tw := obs.NewTraceWriter(io.Discard)
	r.set("obs.tracewriter_event_ns", nsPerOp(iters(200_000), batches, func(n int) {
		for i := 0; i < n; i++ {
			tw.Observe(obs.Event{Kind: obs.EvProbe, Time: float64(i), Query: uint64(i), Peer: 7, Target: 9, Outcome: obs.OutcomeGood, Probes: 3, Results: 1})
		}
	}))
	if err := tw.Err(); err != nil {
		return err
	}

	return probeNode(r, iters, batches)
}

// fullCache returns a full link cache of the given capacity holding
// addresses 1..capacity.
func fullCache(capacity int) *cache.LinkCache {
	lc := cache.NewLinkCache(capacity)
	for i := 1; i <= capacity; i++ {
		lc.Add(cache.Entry{Addr: cache.PeerID(i), TS: float64(i % 97), NumFiles: int32(i % 13), NumRes: int32(i % 7)})
	}
	return lc
}

// probeWire times the codec on the three messages the node workloads
// exchange most.
func probeWire(r *runResult, iters func(int) int, batches int) error {
	pong := make([]wire.PongEntry, 5)
	for i := range pong {
		pong[i] = wire.PongEntry{Addr: netip.AddrPortFrom(netip.MustParseAddr("10.99.0.1"), uint16(10000+i)), NumFiles: uint32(i), NumRes: uint16(i)}
	}
	msgs := []struct {
		name string
		m    wire.Message
	}{
		{"query", &wire.Query{MsgID: 42, Desired: 1, NumFiles: 7, Keyword: "item-017"}},
		{"queryhit", &wire.QueryHit{MsgID: 42, Results: []string{"item-017.dat"}, Pong: pong}},
		{"busy", &wire.Busy{MsgID: 42}},
	}
	var werr error
	for _, c := range msgs {
		r.set("wire.encode_ns."+c.name, nsPerOp(iters(300_000), batches, func(n int) {
			for i := 0; i < n; i++ {
				pkt, err := wire.Encode(c.m)
				if err != nil {
					werr = err
				}
				sink += uint64(len(pkt))
			}
		}))
		pkt, err := wire.Encode(c.m)
		if err != nil {
			return err
		}
		r.set("wire.decode_ns."+c.name, nsPerOp(iters(300_000), batches, func(n int) {
			for i := 0; i < n; i++ {
				m, err := wire.Decode(pkt)
				if err != nil {
					werr = err
					continue
				}
				sink += m.ID()
			}
		}))
	}
	if werr != nil {
		return werr
	}
	// Allocations of one query round trip through the codec: encode
	// and decode the Query, encode and decode its QueryHit.
	n := iters(20_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		for _, c := range msgs[:2] {
			pkt, err := wire.Encode(c.m)
			if err != nil {
				return err
			}
			if _, err := wire.Decode(pkt); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	r.set("wire.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/float64(n))
	return nil
}

// probeExperiments times spec expansion and point hashing for the
// sweep's figures.
func probeExperiments(o runOpts, r *runResult) error {
	opts := experiments.Options{Scale: experiments.Quick, Seed: o.seed}
	var pts []experiments.Point
	var eerr error
	r.set("experiments.specs_ms", nsPerOp(1, 5, func(int) {
		pts = pts[:0]
		for _, id := range sweepFigures(o.quick) {
			exp, err := experiments.Lookup(id)
			if err != nil {
				eerr = err
				return
			}
			for _, spec := range exp.Specs(opts) {
				for i := 0; i < spec.NumPoints(); i++ {
					pts = append(pts, spec.Point(i))
				}
			}
		}
	})/1e6)
	if eerr != nil {
		return eerr
	}
	if len(pts) == 0 {
		return fmt.Errorf("the sweep's figures expand to no points")
	}
	r.set("experiments.point_key_us", nsPerOp(1, 5, func(int) {
		for _, pt := range pts {
			sink += uint64(len(pt.Key()))
		}
	})/float64(len(pts))/1e3)
	return nil
}

// probeNode times one probe against one node from a raw requester,
// closed loop, and subtracts the transport floor: a raw echo over the
// same memnet. What is left is decode, admission, the node's work
// under its mutex, and encode.
func probeNode(r *runResult, iters func(int) int, batches int) error {
	nw := memnet.New(1)
	n := iters(20_000)

	// The floor: one datagram each way between two endpoints, the echo
	// side on its own goroutine as a node's serve loop is.
	a, b := nw.Listen(), nw.Listen()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, wire.MaxPacket)
		for {
			k, from, err := b.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, err := b.WriteTo(buf[:k], from); err != nil {
				return
			}
		}
	}()
	ping := []byte("floor")
	buf := make([]byte, wire.MaxPacket)
	var ferr error
	floor := nsPerOp(n, batches, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.WriteTo(ping, b.LocalAddr()); err != nil {
				ferr = err
				return
			}
			a.SetReadDeadline(time.Now().Add(replyTimeout))
			if _, _, err := a.ReadFrom(buf); err != nil {
				ferr = err
				return
			}
		}
	})
	a.Close()
	b.Close()
	<-done
	if ferr != nil {
		return fmt.Errorf("memnet echo: %w", ferr)
	}
	r.set("memnet.roundtrip_ns", floor)

	peers := make([]netip.AddrPort, 20)
	for i := range peers {
		peers[i] = netip.AddrPortFrom(netip.MustParseAddr("10.98.0.1"), uint16(20000+i))
	}
	cases := []struct {
		name string
		cfg  node.Config
		ping bool
		want probeOutcome
	}{
		{"node.serve_query_ns.flat", node.Config{}, false, probeServed},
		// Fair admission with capacity to spare: the sketch update and
		// share test, nothing shed.
		{"node.serve_query_ns.fair", node.Config{Admission: node.AdmissionFair, MaxProbesPerSecond: 100_000_000, AdmissionWindow: crowdWindow}, false, probeServed},
		{"node.serve_ping_ns", node.Config{}, true, probeServed},
		// One probe per window admitted: everything after it is shed.
		{"node.shed_ns", node.Config{Admission: node.AdmissionFair, MaxProbesPerSecond: 10, AdmissionWindow: crowdWindow}, false, probeRefused},
	}
	for _, c := range cases {
		c.cfg.Files = []string{crowdKeyword + ".iso"}
		c.cfg.PingInterval = time.Hour
		srv, err := node.New(nw.Listen(), c.cfg)
		if err != nil {
			return err
		}
		for i, p := range peers {
			srv.AddPeer(p, uint32(i))
		}
		q := newRequester(nw.Listen(), 1)
		var got, other int
		per := nsPerOp(n, batches, func(n int) {
			for i := 0; i < n; i++ {
				q.next++
				var req wire.Message = &wire.Query{MsgID: q.next, Desired: 1, Keyword: crowdKeyword}
				if c.ping {
					req = &wire.Ping{MsgID: q.next}
				}
				if q.probe(req, srv.Addr()) == c.want {
					got++
				} else {
					other++
				}
			}
		})
		q.conn.Close()
		srv.Close()
		// The shed probe's node admits one probe a window, so a few
		// served replies are expected there; anywhere else every reply
		// must be the expected kind.
		if other > got/10 {
			return fmt.Errorf("%s: %d of %d probes were not answered as expected", c.name, other, got+other)
		}
		r.set(c.name, per-floor)
	}
	return nil
}
