package frame

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The on-disk counterpart of the stream frame: a checked blob is its
// body followed by a 4-byte big-endian CRC-32 (IEEE) of the body, and
// a file is replaced atomically. The link-cache snapshot (node) and the
// aggregate snapshot (node/cluster) use both halves; the sweep result
// cache (internal/orchestrate), whose entries are self-validating JSON,
// uses the atomic write.

// checksumSize is the length of the trailer AppendChecksum adds.
const checksumSize = 4

// AppendChecksum appends the checksum trailer to body.
func AppendChecksum(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// CutChecksum splits b into its body and checksum trailer and verifies
// one against the other. ok is false when b is shorter than a trailer
// or the body does not match it: truncation and corruption are caught
// before the body reaches a decoder.
func CutChecksum(b []byte) (body []byte, ok bool) {
	if len(b) < checksumSize {
		return nil, false
	}
	body, trailer := b[:len(b)-checksumSize], b[len(b)-checksumSize:]
	return body, crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(trailer)
}

// WriteFileAtomic writes data to path atomically: a uniquely named
// temp file in the same directory, fsynced, then renamed over path. A
// crash mid-write leaves either the old file or none, never a torn one
// (a checksum trailer catches torn sector writes below the rename's
// atomicity), and concurrent writers of one path each rename a complete
// file. The temp file is removed on failure.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
