// Link-cache snapshots: crash recovery for the live node.
//
// A node with Config.SnapshotPath set periodically serializes its link
// cache to disk (atomically: temp file + fsync + rename, with a CRC32
// trailer), and on startup restores the file's entries as *suspects*:
// they are invisible to every policy until a verification ping proves
// each one alive, at which point the entry is installed in the link
// cache. A crashed-and-restarted node therefore reaches a warm cache
// without a single bootstrap contact, while a stale or corrupt
// snapshot degrades safely to a cold start.
//
// File format (all integers big-endian), see node/PROTOCOL.md:
//
//	magic "GSNP" (4) | version u8 | count u16 | writtenUnixNano i64
//	entries[count] | crc32-IEEE u32 over all preceding bytes
//
// entry: a wire pong entry (addrSize u8 (4|16) | addr | port u16 |
// numFiles u32 | numRes u16) | direct u8

package node

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/frame"
	"repro/internal/policy"
	"repro/internal/wire"
)

// snapshot format constants.
const (
	snapMagic      = "GSNP"
	snapVersion    = 1
	snapHeaderSize = 4 + 1 + 2 + 8
	// snapMaxEntries bounds a decodable snapshot; far above any
	// plausible CacheSize, low enough that a hostile length prefix
	// cannot force a large allocation.
	snapMaxEntries = 1 << 14
)

// errSnapshot reports an unusable snapshot file.
var errSnapshot = errors.New("node: bad snapshot")

// snapEntry is one serialized link-cache pointer: a pong entry, and
// whether the node learned it first-hand.
type snapEntry struct {
	wire.PongEntry
	Direct bool
}

// encodeSnapshot serializes entries with the checksum trailer.
func encodeSnapshot(writtenAt time.Time, entries []snapEntry) ([]byte, error) {
	if len(entries) > snapMaxEntries {
		return nil, fmt.Errorf("%w: %d entries exceed %d", errSnapshot, len(entries), snapMaxEntries)
	}
	buf := make([]byte, 0, snapHeaderSize+len(entries)*26+4)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(entries)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(writtenAt.UnixNano()))
	for _, e := range entries {
		var err error
		if buf, err = wire.AppendPongEntry(buf, e.PongEntry); err != nil {
			return nil, fmt.Errorf("%w: %v", errSnapshot, err)
		}
		if e.Direct {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return frame.AppendChecksum(buf), nil
}

// decodeSnapshot parses and checksums a snapshot. Every malformation —
// truncation, bit flips, bad magic, impossible counts — returns
// errSnapshot (wrapped with detail); it never panics, which
// FuzzSnapshotDecode enforces.
func decodeSnapshot(b []byte) (writtenAt time.Time, entries []snapEntry, err error) {
	if len(b) < snapHeaderSize+4 {
		return time.Time{}, nil, fmt.Errorf("%w: %d bytes < header", errSnapshot, len(b))
	}
	body, ok := frame.CutChecksum(b)
	if !ok {
		return time.Time{}, nil, fmt.Errorf("%w: checksum mismatch", errSnapshot)
	}
	if string(body[:4]) != snapMagic {
		return time.Time{}, nil, fmt.Errorf("%w: bad magic", errSnapshot)
	}
	if body[4] != snapVersion {
		return time.Time{}, nil, fmt.Errorf("%w: unsupported version %d", errSnapshot, body[4])
	}
	count := int(binary.BigEndian.Uint16(body[5:7]))
	if count > snapMaxEntries {
		return time.Time{}, nil, fmt.Errorf("%w: %d entries exceed %d", errSnapshot, count, snapMaxEntries)
	}
	writtenAt = time.Unix(0, int64(binary.BigEndian.Uint64(body[7:15])))
	rest := body[snapHeaderSize:]
	entries = make([]snapEntry, 0, count)
	for i := 0; i < count; i++ {
		e, n, err := wire.DecodePongEntry(rest)
		if err != nil {
			return time.Time{}, nil, fmt.Errorf("%w: entry %d: %v", errSnapshot, i, err)
		}
		if len(rest) <= n {
			return time.Time{}, nil, fmt.Errorf("%w: truncated entry %d", errSnapshot, i)
		}
		entries = append(entries, snapEntry{e, rest[n] != 0})
		rest = rest[n+1:]
	}
	if len(rest) != 0 {
		return time.Time{}, nil, fmt.Errorf("%w: %d trailing bytes", errSnapshot, len(rest))
	}
	return writtenAt, entries, nil
}

// snapshotEntries collects the link cache for serialization.
func (n *Node) snapshotEntries() []snapEntry {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]snapEntry, 0, n.link.Len())
	for _, e := range n.link.Entries() {
		if pe, ok := n.pongEntry(e); ok {
			out = append(out, snapEntry{pe, e.Direct})
		}
	}
	return out
}

// writeSnapshot serializes the current link cache to SnapshotPath.
func (n *Node) writeSnapshot() error {
	now := time.Now()
	data, err := encodeSnapshot(now, n.snapshotEntries())
	if err == nil {
		err = frame.WriteFileAtomic(n.cfg.SnapshotPath, data)
	}
	if err != nil {
		n.met.SnapshotErrors.Inc()
		n.logf("snapshot: %v", err)
		return err
	}
	n.met.SnapshotWrites.Inc()
	n.met.SnapshotLastUnix.Set(float64(now.Unix()))
	return nil
}

// snapshotLoop periodically persists the link cache until close.
func (n *Node) snapshotLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.closing:
			return
		case <-ticker.C:
			n.writeSnapshot()
		}
	}
}

// restoreSnapshot loads SnapshotPath into the suspect set. A missing
// file is a normal cold start; an undecodable one is counted, logged,
// and ignored (cold start, never a panic).
func (n *Node) restoreSnapshot() {
	data, err := os.ReadFile(n.cfg.SnapshotPath)
	if err != nil {
		if !os.IsNotExist(err) {
			n.met.SnapshotRejected.Inc()
			n.logf("snapshot restore: %v", err)
		}
		return
	}
	writtenAt, entries, err := decodeSnapshot(data)
	if err != nil {
		n.met.SnapshotRejected.Inc()
		n.logf("snapshot restore: %v", err)
		return
	}
	self := n.Addr()
	for _, e := range entries {
		if e.Addr == self {
			continue
		}
		n.suspects = append(n.suspects, e)
	}
	n.met.SnapshotRestored.Add(uint64(len(n.suspects)))
	n.met.SnapshotLastUnix.Set(float64(writtenAt.Unix()))
	n.logf("snapshot restore: %d suspect entries (written %v ago)",
		len(n.suspects), time.Since(writtenAt).Round(time.Second))
}

// verifyWorkers bounds concurrent verification pings so a large
// restored cache does not burst-probe the whole network at once.
const verifyWorkers = 4

// verifySuspects pings every restored entry and installs only the ones
// that answer; the rest are discarded. Until a suspect is verified it
// is invisible to every policy (it is not in the link cache). Runs as
// a goroutine owned by n.wg.
func (n *Node) verifySuspects(suspects []snapEntry) {
	defer n.wg.Done()
	work := make(chan snapEntry)
	done := make(chan struct{})
	for w := 0; w < verifyWorkers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for e := range work {
				n.verifyOne(e)
			}
		}()
	}
	for _, e := range suspects {
		select {
		case <-n.closing:
			close(work)
			for w := 0; w < verifyWorkers; w++ {
				<-done
			}
			return
		case work <- e:
		}
	}
	close(work)
	for w := 0; w < verifyWorkers; w++ {
		<-done
	}
	n.mu.Lock()
	n.suspectsLeft = 0
	n.mu.Unlock()
}

// verifyOne probes one suspect; a pong installs it in the link cache.
func (n *Node) verifyOne(e snapEntry) {
	pong, _, _ := n.ping(context.Background(), e.Addr)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.suspectsLeft > 0 {
		n.suspectsLeft--
	}
	if pong == nil {
		n.met.SnapshotDiscarded.Inc()
		return
	}
	id := n.idFor(e.Addr)
	if id == 0 {
		n.met.SnapshotDiscarded.Inc()
		return
	}
	n.insertLocked(cache.Entry{
		Addr:     id,
		TS:       n.now(),
		NumFiles: int32(clampFiles(e.NumFiles)),
		NumRes:   int32(e.NumRes),
		Direct:   e.Direct,
	})
	n.met.SnapshotVerified.Inc()
	n.syncCacheGauge()
}

// insertLocked runs cache replacement for e and prunes health state
// for any peer the replacement evicted; callers hold n.mu.
func (n *Node) insertLocked(e cache.Entry) {
	policy.Insert(n.rng, n.cfg.CacheReplacement, n.link, e)
	n.health.pruneTo(n.link)
	n.syncBreakerGauge()
}
