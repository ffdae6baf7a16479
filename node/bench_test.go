package node

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/simrng"
	"repro/internal/wire"
	"repro/node/memnet"
)

// rawRequester is a wire-speaking memnet endpoint that sends one
// request and waits for its correlated reply, like bench/'s requester:
// the serve benchmarks and alloc ceilings drive a node with it so what
// they measure is the node's serve path plus a fixed, small client.
type rawRequester struct {
	conn *memnet.Conn
	to   net.Addr
	buf  []byte
	next uint64
}

func newRawRequester(nw *memnet.Network, to netip.AddrPort) *rawRequester {
	return &rawRequester{
		conn: nw.Listen(),
		to:   net.UDPAddrFromAddrPort(to),
		buf:  make([]byte, wire.MaxPacket),
	}
}

// roundTrip sends req and returns the type of the reply carrying its
// id; req's MsgID must be fresh.
func (q *rawRequester) roundTrip(req wire.Message) (wire.Type, error) {
	pkt, err := wire.Encode(req)
	if err != nil {
		return 0, err
	}
	if _, err := q.conn.WriteTo(pkt, q.to); err != nil {
		return 0, err
	}
	if err := q.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, err
	}
	for {
		n, _, err := q.conn.ReadFrom(q.buf)
		if err != nil {
			return 0, err
		}
		msg, err := wire.Decode(q.buf[:n])
		if err != nil || msg.ID() != req.ID() {
			continue
		}
		return msg.Type(), nil
	}
}

// serveTarget starts one sharer with a 20-entry link cache (so every
// reply carries a full pong), the shape of bench/'s serve probes.
func serveTarget(tb testing.TB, nw *memnet.Network) *Node {
	tb.Helper()
	srv, err := New(nw.Listen(), Config{
		Files:        []string{"Hotfile.iso", "other.dat", "third.bin"},
		PingInterval: time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	for i := 0; i < 20; i++ {
		srv.AddPeer(netip.AddrPortFrom(netip.MustParseAddr("10.98.0.1"), uint16(20000+i)), uint32(i))
	}
	return srv
}

func benchServe(b *testing.B, want wire.Type, request func(id uint64) wire.Message) {
	nw := memnet.New(1)
	srv := serveTarget(b, nw)
	q := newRawRequester(nw, srv.Addr())
	defer q.conn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.next++
		got, err := q.roundTrip(request(q.next))
		if err != nil || got != want {
			b.Fatalf("reply %v, %v; want %v", got, err, want)
		}
	}
}

// BenchmarkServeQuery is one query served to a raw requester over
// memnet: decode, admission, introduction, pong, match, encode.
func BenchmarkServeQuery(b *testing.B) {
	q := &wire.Query{Desired: 1, Keyword: "hotfile"}
	benchServe(b, wire.TypeQueryHit, func(id uint64) wire.Message {
		q.MsgID = id
		return q
	})
}

// BenchmarkServePing is the same for a maintenance ping.
func BenchmarkServePing(b *testing.B) {
	p := &wire.Ping{}
	benchServe(b, wire.TypePong, func(id uint64) wire.Message {
		p.MsgID = id
		return p
	})
}

// benchFleet is the node-fleet workload's shape (bench/fleet.go) at a
// given size: Zipf-popular items, every item on at least two nodes,
// each node bootstrapped with a random subset of the others.
type benchFleet struct {
	nodes    []*Node
	keywords []string
}

func newBenchFleet(tb testing.TB, nodes, items, bootstrap int) *benchFleet {
	tb.Helper()
	rng := simrng.New(1)
	pop := dist.MustZipf(items, 1)
	f := &benchFleet{keywords: make([]string, items)}
	for k := range f.keywords {
		f.keywords[k] = fmt.Sprintf("item-%03d", k)
	}
	holds := make([][]bool, nodes)
	holders := make([]int, items)
	for n := range holds {
		holds[n] = make([]bool, items)
		for size := min(2+rng.Intn(9), items); size > 0; {
			if k := pop.Rank(rng); !holds[n][k] {
				holds[n][k] = true
				holders[k]++
				size--
			}
		}
	}
	for k := range holders {
		for holders[k] < min(2, nodes) {
			if n := rng.Intn(nodes); !holds[n][k] {
				holds[n][k] = true
				holders[k]++
			}
		}
	}
	nw := memnet.New(1)
	libSize := make([]int, nodes)
	for n := range holds {
		var files []string
		for k, held := range holds[n] {
			if held {
				files = append(files, f.keywords[k]+".dat")
			}
		}
		libSize[n] = len(files)
		nd, err := New(nw.Listen(), Config{
			Files:        files,
			PingInterval: 250 * time.Millisecond,
			Seed:         uint64(n) + 2,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { nd.Close() })
		f.nodes = append(f.nodes, nd)
	}
	for n, nd := range f.nodes {
		added := 0
		for _, peer := range rng.Perm(nodes) {
			if peer != n && added < bootstrap {
				nd.AddPeer(f.nodes[peer].Addr(), uint32(libSize[peer]))
				added++
			}
		}
	}
	return f
}

// query runs the i-th query of a fixed pseudo-random stream and fails
// the test unless it finds the item (some other node always holds it).
func (f *benchFleet) query(tb testing.TB, rng *simrng.RNG, pop *dist.Zipf) {
	origin := f.nodes[rng.Intn(len(f.nodes))]
	keyword := f.keywords[pop.Rank(rng)]
	hits, _, err := origin.Query(context.Background(), keyword, 1)
	if err != nil || len(hits) == 0 {
		tb.Fatalf("query %q: hits=%v err=%v", keyword, hits, err)
	}
}

// BenchmarkFleetQuery is one Node.Query on a warm 64-node memnet
// fleet, closed loop from one caller: the node-fleet workload's unit of
// work, and the benchmark to profile the live path with
// (go test -run '^$' -bench FleetQuery -cpuprofile ...). live-B/node is
// the heap still reachable after the last query, with the fleet
// referenced, per node: what a node holds once warm.
func BenchmarkFleetQuery(b *testing.B) {
	f := newBenchFleet(b, 64, 40, 20)
	rng := simrng.New(7)
	pop := dist.MustZipf(len(f.keywords), 1)
	for i := 0; i < 2000; i++ {
		f.query(b, rng, pop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.query(b, rng, pop)
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(f)
	b.ReportMetric(float64(ms.HeapAlloc)/float64(len(f.nodes)), "live-B/node")
}
