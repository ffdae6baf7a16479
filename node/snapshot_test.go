package node

import (
	"encoding/hex"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/frame"
	"repro/internal/wire"
	"repro/node/memnet"
)

func goldenSnapshot(t testing.TB) ([]byte, []snapEntry) {
	entries := []snapEntry{
		{wire.PongEntry{Addr: netip.MustParseAddrPort("10.1.2.3:6346"), NumFiles: 12, NumRes: 3}, true},
		{wire.PongEntry{Addr: netip.MustParseAddrPort("[2001:db8::7]:4000"), NumFiles: 0, NumRes: 0}, false},
		{wire.PongEntry{Addr: netip.MustParseAddrPort("192.168.0.9:1"), NumFiles: 1 << 30, NumRes: 65535}, true},
	}
	data, err := encodeSnapshot(time.Unix(1700000000, 12345), entries)
	if err != nil {
		t.Fatal(err)
	}
	return data, entries
}

// TestSnapshotRoundTrip: encode -> decode preserves every field.
func TestSnapshotRoundTrip(t *testing.T) {
	data, want := goldenSnapshot(t)
	writtenAt, got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if writtenAt.UnixNano() != time.Unix(1700000000, 12345).UnixNano() {
		t.Fatalf("writtenAt %v", writtenAt)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotByteVector pins the snapshot format: link-cache entries
// taken through snapshotEntries (NumRes clamped into 16 bits; an
// IPv4-mapped address kept at 16 bytes) encode to these bytes, and
// decode back.
func TestSnapshotByteVector(t *testing.T) {
	n := startMemNode(t, memnet.New(1), Config{Seed: 1, PingInterval: time.Hour})
	links := []struct {
		addr string
		e    cache.Entry
	}{
		{"10.1.2.3:6346", cache.Entry{NumFiles: 12, NumRes: 3, Direct: true}},
		{"[2001:db8::7]:4000", cache.Entry{NumFiles: 0, NumRes: 70000}},
		{"[::ffff:192.168.0.9]:1", cache.Entry{NumFiles: 1 << 30, NumRes: -5, Direct: true}},
		{"172.16.0.1:65535", cache.Entry{NumFiles: 7, NumRes: 65535}},
	}
	n.mu.Lock()
	for _, l := range links {
		e := l.e
		e.Addr = n.ids.add(netip.MustParseAddrPort(l.addr))
		n.link.Add(e)
	}
	n.mu.Unlock()
	data, err := encodeSnapshot(time.Unix(1700000000, 12345), n.snapshotEntries())
	if err != nil {
		t.Fatal(err)
	}
	const want = "47534e5001000417979cfe362a3039" +
		"040a01020318ca0000000c000301" +
		"1020010db80000000000000000000000070fa000000000ffff00" +
		"1000000000000000000000ffffc0a80009000140000000000001" +
		"04ac100001ffff00000007ffff00" +
		"714ad374"
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("snapshot bytes\n got %s\nwant %s", got, want)
	}
	_, got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := []snapEntry{
		{wire.PongEntry{Addr: netip.MustParseAddrPort("10.1.2.3:6346"), NumFiles: 12, NumRes: 3}, true},
		{wire.PongEntry{Addr: netip.MustParseAddrPort("[2001:db8::7]:4000"), NumFiles: 0, NumRes: 65535}, false},
		{wire.PongEntry{Addr: netip.MustParseAddrPort("[::ffff:192.168.0.9]:1"), NumFiles: 1 << 30, NumRes: 0}, true},
		{wire.PongEntry{Addr: netip.MustParseAddrPort("172.16.0.1:65535"), NumFiles: 7, NumRes: 65535}, false},
	}
	if !slices.Equal(got, wantEntries) {
		t.Fatalf("decoded %+v\nwant %+v", got, wantEntries)
	}
}

// TestSnapshotDecodeRejectsCorruption: truncation, bit flips, bad
// magic, and oversized counts all fail cleanly with errSnapshot.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	data, _ := goldenSnapshot(t)
	// Every possible truncation.
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	// A bit flip anywhere breaks the checksum (or, for flips inside the
	// trailer itself, the checksum comparison).
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, _, err := decodeSnapshot(bad); err == nil {
			t.Fatalf("bit flip at byte %d decoded", i)
		}
	}
	if _, _, err := decodeSnapshot(nil); err == nil {
		t.Fatal("nil snapshot decoded")
	}
}

// TestSnapshotAtomicWrite: the temp-and-rename path replaces the old
// file completely and leaves no droppings.
func TestSnapshotAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	if err := frame.WriteFileAtomic(path, []byte("old old old")); err != nil {
		t.Fatal(err)
	}
	data, _ := goldenSnapshot(t)
	if err := frame.WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("rename did not replace the old snapshot")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

// TestCrashRecoveryFromSnapshot is the acceptance scenario: a node
// writes its final snapshot on Close; a successor restarted from that
// file — with zero bootstrap contacts — verifies the entries by ping
// and reaches at least 80% of the live ones, while dead ones are
// discarded.
func TestCrashRecoveryFromSnapshot(t *testing.T) {
	leakCheck(t)
	nw := memnet.New(404)
	nw.SetDefaultProfile(memnet.LinkProfile{Latency: time.Millisecond})
	snap := filepath.Join(t.TempDir(), "cache.snap")

	const live = 10
	sharers := make([]*Node, live)
	for i := range sharers {
		sharers[i] = startMemNode(t, nw, Config{
			Files:        []string{"warm.txt"},
			PingInterval: time.Hour,
			Seed:         uint64(i + 2),
		})
	}

	cfg := chaosCfg(1)
	cfg.SnapshotPath = snap
	first := startMemNode(t, nw, cfg)
	for _, s := range sharers {
		first.AddPeer(s.Addr(), 1)
	}
	// Two peers that will be dead at restart.
	for i := 0; i < 2; i++ {
		c := nw.Listen()
		first.AddPeer(c.AddrPort(), 1)
		c.Close()
	}
	if first.CacheLen() != live+2 {
		t.Fatalf("seed cache %d, want %d", first.CacheLen(), live+2)
	}
	first.Close() // writes the final snapshot

	cfg2 := chaosCfg(9)
	cfg2.SnapshotPath = snap
	second := startMemNode(t, nw, cfg2) // note: no AddPeer — no bootstrap
	deadline := time.Now().Add(5 * time.Second)
	for second.Suspects() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("verification did not settle: %d suspects left", second.Suspects())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := second.Stats()
	if st.SnapshotRestored != live+2 {
		t.Fatalf("restored %d suspects, want %d", st.SnapshotRestored, live+2)
	}
	if st.SnapshotVerified != live {
		t.Fatalf("verified %d entries, want %d", st.SnapshotVerified, live)
	}
	if got := second.CacheLen(); got < live*8/10 {
		t.Fatalf("recovered cache %d entries, want >= %d (80%% of %d live)",
			got, live*8/10, live)
	}
	// Everything recovered must actually be live (the dead suspects were
	// discarded, not installed).
	for _, addr := range second.CacheAddrs() {
		found := false
		for _, s := range sharers {
			if addr == s.Addr() {
				found = true
			}
		}
		if !found {
			t.Fatalf("dead suspect %v installed in recovered cache", addr)
		}
	}
	requireNetInvariant(t, nw)
}

// TestCorruptSnapshotColdStart: an undecodable snapshot file must fall
// back to an empty cache without panicking, and the node stays usable.
func TestCorruptSnapshotColdStart(t *testing.T) {
	leakCheck(t)
	data, _ := goldenSnapshot(t)
	cases := map[string][]byte{
		"garbage":   []byte("not a snapshot at all"),
		"truncated": data[:len(data)/2],
		"bitflip": func() []byte {
			bad := append([]byte(nil), data...)
			bad[snapHeaderSize+3] ^= 0x01
			return bad
		}(),
		"empty": {},
	}
	for name, contents := range cases {
		t.Run(name, func(t *testing.T) {
			nw := memnet.New(5)
			snap := filepath.Join(t.TempDir(), "cache.snap")
			if err := os.WriteFile(snap, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := chaosCfg(3)
			cfg.SnapshotPath = snap
			n := startMemNode(t, nw, cfg)
			if n.CacheLen() != 0 || n.Suspects() != 0 {
				t.Fatalf("corrupt snapshot populated state: cache=%d suspects=%d",
					n.CacheLen(), n.Suspects())
			}
			if n.Stats().SnapshotRestored != 0 {
				t.Fatal("corrupt snapshot counted as restored")
			}
			// The node is fully usable after the cold start.
			s := startMemNode(t, nw, Config{Files: []string{"ok.txt"}, PingInterval: time.Hour, Seed: 8})
			n.AddPeer(s.Addr(), 1)
			if n.CacheLen() != 1 {
				t.Fatal("cold-started node unusable")
			}
		})
	}
}

// TestSnapshotLoopWrites: the periodic writer produces a decodable
// snapshot without waiting for Close.
func TestSnapshotLoopWrites(t *testing.T) {
	leakCheck(t)
	nw := memnet.New(6)
	snap := filepath.Join(t.TempDir(), "cache.snap")
	cfg := chaosCfg(2)
	cfg.SnapshotPath = snap
	cfg.SnapshotInterval = 20 * time.Millisecond
	n := startMemNode(t, nw, cfg)
	s := startMemNode(t, nw, Config{PingInterval: time.Hour, Seed: 4})
	n.AddPeer(s.Addr(), 7)
	deadline := time.Now().Add(3 * time.Second)
	for n.Stats().SnapshotWrites == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never written")
		}
		time.Sleep(5 * time.Millisecond)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, entries, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Addr != s.Addr() || entries[0].NumFiles != 7 {
		t.Fatalf("periodic snapshot content: %+v", entries)
	}
}

// FuzzSnapshotDecode: decodeSnapshot must never panic, and anything it
// accepts must re-encode to an equivalent snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	data, _ := goldenSnapshot(f)
	f.Add(data)
	f.Add(data[:len(data)-1])    // truncated trailer
	f.Add(data[:snapHeaderSize]) // header only
	bad := append([]byte(nil), data...)
	bad[7] ^= 0x80 // bit-flipped count
	f.Add(bad)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		writtenAt, entries, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		re, err := encodeSnapshot(writtenAt, entries)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		wa2, entries2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if wa2.UnixNano() != writtenAt.UnixNano() || len(entries2) != len(entries) {
			t.Fatalf("round trip drifted: %d/%d entries", len(entries2), len(entries))
		}
		for i := range entries {
			if entries[i] != entries2[i] {
				t.Fatalf("entry %d drifted: %+v != %+v", i, entries[i], entries2[i])
			}
		}
	})
}
