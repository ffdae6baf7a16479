package cluster

// Aggregate snapshots: crash recovery for the shed-state service,
// written as node/snapshot.go writes its own (frame.WriteFileAtomic).
//
// File format (all integers big-endian), see node/PROTOCOL.md:
//
//	magic "GCSS" (4) | version u8 | epoch i64 | winStart i64 |
//	writtenUnixNano i64 | cur counts (4×64 u32) | prev counts
//	(4×64 u32) | seqCount u16 | seqs[seqCount] |
//	crc32-IEEE u32 over all preceding bytes
//
// seq entry: nameLen u8 | name | nonce u64 | lastSeq u64
//
// The salt is not stored: it is derived from the epoch (saltOf), so
// the pair cannot desynchronize. The windows and the per-node
// sequence records live in one checksummed file written atomically,
// so a restored service holds either both a delta's counts and the
// record that it was applied, or neither — re-sent deltas never
// double-count across a crash.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/frame"
	"repro/node"
)

const (
	aggSnapMagic   = "GCSS"
	aggSnapVersion = 1
	// aggSnapMaxSeqs bounds the decodable sequence table; far above
	// any plausible cluster size, low enough that a hostile count
	// cannot force a large allocation.
	aggSnapMaxSeqs = 1 << 12
)

// errAggSnapshot reports an unusable aggregate snapshot file.
var errAggSnapshot = errors.New("cluster: bad aggregate snapshot")

// aggSnapshot is the decoded snapshot contents.
type aggSnapshot struct {
	Epoch     int64
	WinStart  int64
	WrittenAt time.Time
	Cur, Prev sketch
	Seqs      map[string]pushSeq
}

// encodeAggSnapshot serializes a snapshot with the checksum trailer.
func encodeAggSnapshot(snap aggSnapshot) ([]byte, error) {
	if len(snap.Seqs) > aggSnapMaxSeqs {
		return nil, fmt.Errorf("%w: %d seq records exceed %d", errAggSnapshot, len(snap.Seqs), aggSnapMaxSeqs)
	}
	buf := make([]byte, 0, 4+1+8*3+2*node.FairLevels*node.FairBuckets*4+2+len(snap.Seqs)*(1+maxNodeName+16)+4)
	buf = append(buf, aggSnapMagic...)
	buf = append(buf, aggSnapVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(snap.Epoch))
	buf = binary.BigEndian.AppendUint64(buf, uint64(snap.WinStart))
	buf = binary.BigEndian.AppendUint64(buf, uint64(snap.WrittenAt.UnixNano()))
	for _, w := range []*sketch{&snap.Cur, &snap.Prev} {
		for l := 0; l < node.FairLevels; l++ {
			for b := 0; b < node.FairBuckets; b++ {
				buf = binary.BigEndian.AppendUint32(buf, w[l][b])
			}
		}
	}
	names := make([]string, 0, len(snap.Seqs))
	for name := range snap.Seqs {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic bytes for a given state
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(names)))
	for _, name := range names {
		if name == "" || len(name) > maxNodeName {
			return nil, fmt.Errorf("%w: node name %d bytes", errAggSnapshot, len(name))
		}
		rec := snap.Seqs[name]
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		buf = binary.BigEndian.AppendUint64(buf, rec.Nonce)
		buf = binary.BigEndian.AppendUint64(buf, rec.LastSeq)
	}
	return frame.AppendChecksum(buf), nil
}

// decodeAggSnapshot parses and checksums a snapshot. Every
// malformation returns errAggSnapshot (wrapped with detail); it never
// panics.
func decodeAggSnapshot(b []byte) (aggSnapshot, error) {
	const fixed = 4 + 1 + 8*3 + 2*node.FairLevels*node.FairBuckets*4 + 2
	if len(b) < fixed+4 {
		return aggSnapshot{}, fmt.Errorf("%w: %d bytes < header", errAggSnapshot, len(b))
	}
	body, ok := frame.CutChecksum(b)
	if !ok {
		return aggSnapshot{}, fmt.Errorf("%w: checksum mismatch", errAggSnapshot)
	}
	if string(body[:4]) != aggSnapMagic {
		return aggSnapshot{}, fmt.Errorf("%w: bad magic", errAggSnapshot)
	}
	if body[4] != aggSnapVersion {
		return aggSnapshot{}, fmt.Errorf("%w: unsupported version %d", errAggSnapshot, body[4])
	}
	rest := body[5:]
	snap := aggSnapshot{Seqs: make(map[string]pushSeq)}
	snap.Epoch = int64(binary.BigEndian.Uint64(rest[0:8]))
	snap.WinStart = int64(binary.BigEndian.Uint64(rest[8:16]))
	snap.WrittenAt = time.Unix(0, int64(binary.BigEndian.Uint64(rest[16:24])))
	rest = rest[24:]
	if snap.Epoch <= 0 {
		return aggSnapshot{}, fmt.Errorf("%w: epoch %d", errAggSnapshot, snap.Epoch)
	}
	for _, w := range []*sketch{&snap.Cur, &snap.Prev} {
		for l := 0; l < node.FairLevels; l++ {
			for b := 0; b < node.FairBuckets; b++ {
				w[l][b] = binary.BigEndian.Uint32(rest[:4])
				rest = rest[4:]
			}
		}
	}
	count := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if count > aggSnapMaxSeqs {
		return aggSnapshot{}, fmt.Errorf("%w: %d seq records exceed %d", errAggSnapshot, count, aggSnapMaxSeqs)
	}
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return aggSnapshot{}, fmt.Errorf("%w: truncated seq record %d", errAggSnapshot, i)
		}
		nameLen := int(rest[0])
		rest = rest[1:]
		if nameLen == 0 || len(rest) < nameLen+16 {
			return aggSnapshot{}, fmt.Errorf("%w: truncated seq record %d", errAggSnapshot, i)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if _, dup := snap.Seqs[name]; dup {
			return aggSnapshot{}, fmt.Errorf("%w: duplicate seq record %q", errAggSnapshot, name)
		}
		snap.Seqs[name] = pushSeq{
			Nonce:   binary.BigEndian.Uint64(rest[0:8]),
			LastSeq: binary.BigEndian.Uint64(rest[8:16]),
		}
		rest = rest[16:]
	}
	if len(rest) != 0 {
		return aggSnapshot{}, fmt.Errorf("%w: %d trailing bytes", errAggSnapshot, len(rest))
	}
	return snap, nil
}

// writeSnapshot persists the current aggregate to SnapshotPath.
func (s *Service) writeSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	s.mu.Lock()
	snap := aggSnapshot{
		Epoch:     s.epoch,
		WinStart:  s.winStart,
		WrittenAt: s.cfg.now(),
		Cur:       s.cur,
		Prev:      s.prev,
		Seqs:      make(map[string]pushSeq, len(s.seqs)),
	}
	for name, rec := range s.seqs {
		snap.Seqs[name] = rec
	}
	s.mu.Unlock()
	data, err := encodeAggSnapshot(snap)
	if err == nil {
		err = frame.WriteFileAtomic(s.cfg.SnapshotPath, data)
	}
	if err != nil {
		s.met.SnapshotErrors.Inc()
		s.logf("cluster service: snapshot: %v", err)
		return err
	}
	s.met.SnapshotWrites.Inc()
	return nil
}

// restoreSnapshot loads SnapshotPath, reporting whether a usable state
// was installed. A missing file is a normal cold start; an
// undecodable one is counted, logged, and ignored — the caller
// cold-starts with a fresh epoch, never a panic. A snapshot older
// than one window restores the epoch and sequence records but not the
// stale demand windows, and re-enters warming.
func (s *Service) restoreSnapshot(now time.Time) bool {
	if s.cfg.SnapshotPath == "" {
		return false
	}
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if err != nil {
		if !os.IsNotExist(err) {
			s.met.SnapshotRejected.Inc()
			s.logf("cluster service: snapshot restore: %v", err)
		}
		return false
	}
	snap, err := decodeAggSnapshot(data)
	if err != nil {
		s.met.SnapshotRejected.Inc()
		s.logf("cluster service: snapshot restore: %v", err)
		return false
	}
	s.epoch = snap.Epoch
	s.salt = saltOf(snap.Epoch)
	s.seqs = snap.Seqs
	age := now.Sub(snap.WrittenAt)
	if age >= 0 && age <= s.cfg.Window {
		// Warm restore: the windows are at most one window old, so the
		// merged aggregate still reads as recent demand.
		s.winStart = snap.WinStart
		s.cur, s.prev = snap.Cur, snap.Prev
		s.warmUntil = time.Time{}
	} else {
		// The epoch survives (clients keep their sketches) but the
		// demand is stale; warm up before serving an aggregate.
		s.winStart = now.UnixNano() / int64(s.cfg.Window)
		s.warmUntil = now.Add(s.cfg.Window)
		s.met.Warming.Set(1)
	}
	s.logf("cluster service: restored epoch %d (snapshot %v old)", s.epoch, age.Round(time.Millisecond))
	return true
}
