package cluster

// Unit tests for the state-sync protocol and the shed-state service:
// message validation, aggregation and windowing, push dedupe, epoch
// rotation, and snapshot crash recovery. All deterministic: the
// service runs on an injected fake clock and memnet streams.

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/node"
	"repro/node/memnet"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(100_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// startService runs a service over a memnet stream listener with the
// fake clock.
func startService(t *testing.T, nw *memnet.Network, cfg ServiceConfig, clk *fakeClock) (*Service, netip.AddrPort) {
	t.Helper()
	ln := nw.ListenStream()
	cfg.now = clk.now
	s, err := Serve(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, ln.AddrPort()
}

// syncConn is a raw protocol conversation for driving the service
// directly.
type syncConn struct {
	t    *testing.T
	conn net.Conn
}

func dialSync(t *testing.T, nw *memnet.Network, addr netip.AddrPort, name string, nonce uint64) (*syncConn, syncMsg) {
	t.Helper()
	c, err := nw.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sc := &syncConn{t: t, conn: c}
	sc.send(syncMsg{Type: syncHello, Node: name, Nonce: nonce})
	return sc, sc.recv()
}

func (s *syncConn) send(m syncMsg) {
	s.t.Helper()
	s.conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := writeSyncMsg(s.conn, m); err != nil {
		s.t.Fatalf("write %s: %v", m.Type, err)
	}
}

func (s *syncConn) recv() syncMsg {
	s.t.Helper()
	s.conn.SetDeadline(time.Now().Add(2 * time.Second))
	m, err := readSyncMsg(s.conn)
	if err != nil {
		s.t.Fatalf("read reply: %v", err)
	}
	return m
}

func (s *syncConn) push(m syncMsg) syncMsg {
	s.t.Helper()
	m.Type = syncPush
	s.send(m)
	return s.recv()
}

// deltaFor builds a delta carrying count demand for one requester key.
func deltaFor(key uint64, count uint32) *node.AdmissionDelta {
	d := &node.AdmissionDelta{}
	idx := node.FairIndices(key)
	for l := 0; l < node.FairLevels; l++ {
		d.Counts[l][idx[l]] = count
	}
	return d
}

// TestSyncMsgRoundTrip: every message type survives the frame codec.
func TestSyncMsgRoundTrip(t *testing.T) {
	msgs := []syncMsg{
		{Type: syncHello, Node: "n0", Nonce: 42},
		{Type: syncPush, Seq: 7, Epoch: 1234, Delta: deltaFor(0xbeef, 9)},
		{Type: syncPush, Seq: 0, Epoch: 1234}, // heartbeat
		{Type: syncAgg, Epoch: 1234, Salt: saltOf(1234), AckSeq: 7,
			Agg: &node.AdmissionAggregate{Active: 3}, Warming: true},
		{Type: syncReject, Epoch: 5678, Salt: saltOf(5678), AckSeq: 7},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := writeSyncMsg(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := readSyncMsg(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Epoch != want.Epoch ||
			got.Salt != want.Salt || got.Nonce != want.Nonce || got.Warming != want.Warming {
			t.Fatalf("round trip drifted: got %+v want %+v", got, want)
		}
		if (got.Delta == nil) != (want.Delta == nil) || (got.Agg == nil) != (want.Agg == nil) {
			t.Fatalf("payload presence drifted for %s", want.Type)
		}
		if want.Delta != nil && got.Delta.Counts != want.Delta.Counts {
			t.Fatalf("delta drifted for %s", want.Type)
		}
	}
}

// TestDecodeSyncMsgRejectsMalformed: validation refuses envelopes
// missing their type's required payload.
func TestDecodeSyncMsgRejectsMalformed(t *testing.T) {
	bad := []string{
		`{"type":"hello"}`,           // no node name
		`{"type":"push","seq":3}`,    // seq without delta
		`{"type":"push","epoch":-1}`, // negative epoch
		`{"type":"agg","epoch":1}`,   // no aggregate
		`{"type":"agg","agg":{}}`,    // no epoch
		`{"type":"reject"}`,          // no epoch
		`{"type":"bogus"}`,           // unknown type
		`{"type":"hello","node":"` + string(make([]byte, 200)) + `"}`, // name too long
		`not json`,
	}
	for _, s := range bad {
		if _, err := decodeSyncMsg([]byte(s)); err == nil {
			t.Errorf("decodeSyncMsg accepted %q", s)
		}
	}
}

// TestServiceAggregatesAndAcks: pushes fold into the aggregate, the
// reply carries the merged view, and heartbeats pull without pushing.
func TestServiceAggregatesAndAcks(t *testing.T) {
	nw := memnet.New(1)
	clk := newFakeClock()
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute}, clk)
	clk.advance(2 * time.Minute) // past warming

	c, hello := dialSync(t, nw, addr, "n0", 1)
	if hello.Type != syncAgg || hello.Epoch != svc.Epoch() || hello.Salt != svc.Salt() {
		t.Fatalf("hello reply: %+v", hello)
	}
	key := uint64(0xabcdef)
	r := c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 5)})
	if r.Type != syncAgg || r.AckSeq != 1 || r.Warming {
		t.Fatalf("push reply: %+v", r)
	}
	if got := svc.Estimate(key); got != 5 {
		t.Fatalf("estimate after push = %d, want 5", got)
	}
	// The reply's aggregate carries the folded demand back.
	r2 := c.push(syncMsg{Seq: 2, Epoch: hello.Epoch, Delta: deltaFor(key, 3)})
	idx := node.FairIndices(key)
	if got := r2.Agg.Counts[0][idx[0]]; got != 8 {
		t.Fatalf("aggregate bucket = %d, want 8", got)
	}
	// Heartbeat (seq 0) pulls without applying anything.
	hb := c.push(syncMsg{Seq: 0, Epoch: hello.Epoch})
	if hb.Type != syncAgg || hb.AckSeq != 0 {
		t.Fatalf("heartbeat reply: %+v", hb)
	}
	if got := svc.Estimate(key); got != 8 {
		t.Fatalf("estimate after heartbeat = %d, want 8", got)
	}
}

// TestServiceDedupesReplayedPushes: a re-sent sequence number (lost
// ack) is acknowledged but not re-applied; a fresh nonce (node
// restart) resets the sequence space.
func TestServiceDedupesReplayedPushes(t *testing.T) {
	nw := memnet.New(2)
	clk := newFakeClock()
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute}, clk)
	clk.advance(2 * time.Minute)

	key := uint64(0x5eed)
	c, hello := dialSync(t, nw, addr, "n0", 10)
	c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 4)})
	// Replay after a lost ack: same seq, must not double-count.
	r := c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 4)})
	if r.AckSeq != 1 {
		t.Fatalf("replay not acked: %+v", r)
	}
	if got := svc.Estimate(key); got != 4 {
		t.Fatalf("estimate after replay = %d, want 4 (deduped)", got)
	}
	// Same node restarted (fresh nonce): seq 1 is a new push again.
	c2, hello2 := dialSync(t, nw, addr, "n0", 11)
	c2.push(syncMsg{Seq: 1, Epoch: hello2.Epoch, Delta: deltaFor(key, 4)})
	if got := svc.Estimate(key); got != 8 {
		t.Fatalf("estimate after restart push = %d, want 8", got)
	}
}

// TestServiceWindowRoll: the aggregate reads per-bucket max(cur,
// prev), so demand survives exactly one window roll and an idle gap
// clears it.
func TestServiceWindowRoll(t *testing.T) {
	nw := memnet.New(3)
	clk := newFakeClock()
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute}, clk)
	clk.advance(2 * time.Minute)

	key := uint64(0x10ad)
	c, hello := dialSync(t, nw, addr, "n0", 1)
	c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 6)})
	clk.advance(time.Minute) // roll: demand moves to prev, still visible
	if got := svc.Estimate(key); got != 6 {
		t.Fatalf("estimate one window later = %d, want 6", got)
	}
	clk.advance(5 * time.Minute) // idle gap: all windows stale
	if got := svc.Estimate(key); got != 0 {
		t.Fatalf("estimate after idle gap = %d, want 0", got)
	}
}

// TestServiceEpochMismatch: a push under the wrong epoch is rejected
// (never folded in), and a push under a *newer* epoch than the
// service's — the client outlived a rotation the service lost — forces
// the service to mint a fresh epoch superseding both.
func TestServiceEpochMismatch(t *testing.T) {
	nw := memnet.New(4)
	clk := newFakeClock()
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute}, clk)
	clk.advance(2 * time.Minute)
	epoch := svc.Epoch()

	key := uint64(0xe10c)
	c, _ := dialSync(t, nw, addr, "n0", 1)
	r := c.push(syncMsg{Seq: 1, Epoch: epoch - 1, Delta: deltaFor(key, 9)})
	if r.Type != syncReject || r.Epoch != epoch || r.Salt != svc.Salt() {
		t.Fatalf("stale-epoch push reply: %+v", r)
	}
	if got := svc.Estimate(key); got != 0 {
		t.Fatalf("rejected push leaked into aggregate: %d", got)
	}
	// Newer epoch than the service's: it must supersede, not serve
	// stale state.
	r2 := c.push(syncMsg{Seq: 2, Epoch: epoch + 50, Delta: deltaFor(key, 9)})
	if r2.Type != syncReject {
		t.Fatalf("newer-epoch push reply: %+v", r2)
	}
	if got := svc.Epoch(); got <= epoch+50 {
		t.Fatalf("service epoch %d did not supersede client epoch %d", got, epoch+50)
	}
	if !svc.Warming() {
		t.Fatal("service not warming after forced rotation")
	}
}

// TestServiceRotationDiscardsDemand: Rotate mints a new epoch and
// salt, clears the windows, and re-enters warming.
func TestServiceRotationDiscardsDemand(t *testing.T) {
	nw := memnet.New(5)
	clk := newFakeClock()
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute}, clk)
	clk.advance(2 * time.Minute)

	key := uint64(0x0707)
	c, hello := dialSync(t, nw, addr, "n0", 1)
	c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 7)})
	oldEpoch, oldSalt := svc.Epoch(), svc.Salt()
	svc.Rotate()
	if svc.Epoch() <= oldEpoch || svc.Salt() == oldSalt {
		t.Fatalf("rotation did not advance epoch/salt: %d/%d", svc.Epoch(), svc.Salt())
	}
	if got := svc.Estimate(key); got != 0 {
		t.Fatalf("demand survived rotation: %d", got)
	}
	if !svc.Warming() {
		t.Fatal("service not warming after rotation")
	}
	// A push still carrying the old epoch is rejected with the new one.
	r := c.push(syncMsg{Seq: 2, Epoch: oldEpoch, Delta: deltaFor(key, 7)})
	if r.Type != syncReject || r.Epoch != svc.Epoch() {
		t.Fatalf("old-epoch push after rotation: %+v", r)
	}
}

// TestAggSnapshotRoundTrip: encode/decode is the identity on valid
// snapshots, and every corruption is refused.
func TestAggSnapshotRoundTrip(t *testing.T) {
	snap := aggSnapshot{
		Epoch:     123456789,
		WinStart:  42,
		WrittenAt: time.Unix(5000, 999),
		Seqs: map[string]pushSeq{
			"n0": {Nonce: 7, LastSeq: 19},
			"n1": {Nonce: 9, LastSeq: 3},
		},
	}
	snap.Cur[0][5] = 11
	snap.Prev[3][63] = 200
	data, err := encodeAggSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAggSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != snap.Epoch || got.WinStart != snap.WinStart ||
		got.WrittenAt.UnixNano() != snap.WrittenAt.UnixNano() ||
		got.Cur != snap.Cur || got.Prev != snap.Prev {
		t.Fatalf("round trip drifted: %+v", got)
	}
	if len(got.Seqs) != 2 || got.Seqs["n0"] != snap.Seqs["n0"] || got.Seqs["n1"] != snap.Seqs["n1"] {
		t.Fatalf("seq records drifted: %+v", got.Seqs)
	}
	// Any flipped byte fails the checksum (or a validation check).
	for i := 0; i < len(data); i += 7 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x20
		if _, err := decodeAggSnapshot(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	for cut := 0; cut < len(data); cut += 11 {
		if _, err := decodeAggSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestServiceSnapshotWarmRestore: a service restarted within one
// window of its snapshot keeps the epoch, the windows, and the seq
// records — re-sent pushes stay deduplicated and demand is not
// double-counted across the restart.
func TestServiceSnapshotWarmRestore(t *testing.T) {
	nw := memnet.New(6)
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "agg.snap")
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute, SnapshotPath: path}, clk)
	clk.advance(2 * time.Minute)

	key := uint64(0xca5e)
	c, hello := dialSync(t, nw, addr, "n0", 77)
	c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 5)})
	epoch := svc.Epoch()
	svc.Close() // writes the final snapshot

	clk.advance(10 * time.Second) // restart well inside the window
	svc2, addr2 := startService(t, nw, ServiceConfig{Window: time.Minute, SnapshotPath: path}, clk)
	if svc2.Epoch() != epoch {
		t.Fatalf("warm restore changed epoch: %d != %d", svc2.Epoch(), epoch)
	}
	if svc2.Warming() {
		t.Fatal("warm restore should not re-enter warming")
	}
	if got := svc2.Estimate(key); got != 5 {
		t.Fatalf("restored estimate = %d, want 5", got)
	}
	// The client re-sends its unacked push (same nonce, same seq): the
	// restored seq records must dedupe it.
	c2, hello2 := dialSync(t, nw, addr2, "n0", 77)
	c2.push(syncMsg{Seq: 1, Epoch: hello2.Epoch, Delta: deltaFor(key, 5)})
	if got := svc2.Estimate(key); got != 5 {
		t.Fatalf("estimate after replay across restart = %d, want 5 (deduped)", got)
	}
}

// TestServiceSnapshotStaleRestore: a snapshot older than one window
// restores the epoch but not the stale demand, and re-enters warming.
func TestServiceSnapshotStaleRestore(t *testing.T) {
	nw := memnet.New(7)
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "agg.snap")
	svc, addr := startService(t, nw, ServiceConfig{Window: time.Minute, SnapshotPath: path}, clk)
	clk.advance(2 * time.Minute)
	key := uint64(0x57a1)
	c, hello := dialSync(t, nw, addr, "n0", 1)
	c.push(syncMsg{Seq: 1, Epoch: hello.Epoch, Delta: deltaFor(key, 5)})
	epoch := svc.Epoch()
	svc.Close()

	clk.advance(time.Hour) // long outage
	svc2, _ := startService(t, nw, ServiceConfig{Window: time.Minute, SnapshotPath: path}, clk)
	if svc2.Epoch() != epoch {
		t.Fatalf("stale restore changed epoch: %d != %d", svc2.Epoch(), epoch)
	}
	if !svc2.Warming() {
		t.Fatal("stale restore must re-enter warming")
	}
	if got := svc2.Estimate(key); got != 0 {
		t.Fatalf("hour-old demand served after restore: %d", got)
	}
}

// TestServiceSnapshotCorruptColdStart: a corrupt snapshot cold-starts
// with a fresh (newer) epoch and warming — never a crash, never stale
// state served as fresh.
func TestServiceSnapshotCorruptColdStart(t *testing.T) {
	nw := memnet.New(8)
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "agg.snap")
	svc, _ := startService(t, nw, ServiceConfig{Window: time.Minute, SnapshotPath: path}, clk)
	clk.advance(2 * time.Minute)
	epoch := svc.Epoch()
	svc.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	svc2, _ := startService(t, nw, ServiceConfig{Window: time.Minute, SnapshotPath: path}, clk)
	if svc2.Epoch() <= epoch {
		t.Fatalf("cold start epoch %d does not supersede %d", svc2.Epoch(), epoch)
	}
	if !svc2.Warming() {
		t.Fatal("cold start must warm before serving aggregates")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestSyncClientValidation: unusable configs are refused.
func TestSyncClientValidation(t *testing.T) {
	if _, err := NewSyncClient(nil, ClientConfig{Name: "x", Dial: func() (net.Conn, error) { return nil, errors.New("no") }}); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewSyncClient(&fakeTarget{}, ClientConfig{Name: "", Dial: func() (net.Conn, error) { return nil, errors.New("no") }}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSyncClient(&fakeTarget{}, ClientConfig{Name: "x"}); err == nil {
		t.Error("nil dial accepted")
	}
}
