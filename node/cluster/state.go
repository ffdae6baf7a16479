// Package cluster gives a set of GUESS nodes cluster-wide fair
// admission.
//
// The shed-state Service aggregates every node's fair-admission
// sketch: each node's SyncClient pushes its local bucket deltas on a
// jittered interval and pulls back the cluster-merged aggregate, so a
// heavy requester that rotates across nodes — invisible to any one
// node's local sketch — is shed cluster-wide.
//
// The robustness contract: the service is an optimization, never a
// dependency. A node whose sync client cannot reach the service (down,
// slow, partitioned) or sees a stale salt epoch degrades to local-only
// shedding and keeps serving; on reconnect it re-converges without
// double-counting demand (per-instance nonce + monotonic push
// sequence numbers make re-sent deltas idempotent). The service
// snapshots its aggregate atomically and recovers warm; a corrupt
// snapshot cold-starts with a fresh salt epoch and a warming window
// during which clients stay in local fallback rather than trust a
// half-empty aggregate.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/node"
)

// State-sync wire protocol (see node/PROTOCOL.md, "State sync"): JSON
// messages in internal/frame frames (4-byte BE length, 4-byte BE
// CRC-32 IEEE, payload) — the same framing the distributed sweep
// transport speaks.

// maxSyncFrame bounds a sync frame payload. A delta/aggregate is
// 4×64 u32 counters plus envelope — a few KiB of JSON; 1 MiB leaves
// two orders of magnitude of headroom while keeping a corrupt length
// header from forcing a large allocation.
const maxSyncFrame = 1 << 20

// maxNodeName bounds the node-name field of a hello.
const maxNodeName = 128

// syncType discriminates state-sync messages.
type syncType string

const (
	// syncHello is the client's first message on a connection: its
	// node name and instance nonce. The service replies with syncAgg,
	// so a client learns the current epoch and salt before its first
	// push.
	syncHello syncType = "hello"
	// syncPush carries a sketch delta (client → service). Seq == 0 is
	// a heartbeat: no delta to apply, just pull the aggregate.
	syncPush syncType = "push"
	// syncAgg is the service's reply to hello and push: the merged
	// per-window aggregate plus the epoch/salt it is valid under.
	syncAgg syncType = "agg"
	// syncReject refuses a push whose epoch does not match the
	// aggregate's, carrying the service's current epoch and salt so
	// the client can adopt and resync.
	syncReject syncType = "reject"
)

// syncMsg is the state-sync envelope; Type selects which fields are
// meaningful.
type syncMsg struct {
	Type syncType `json:"type"`

	// hello: node name and per-instance nonce. A restarted node draws
	// a fresh nonce, which resets its sequence tracking on the
	// service.
	Node  string `json:"node,omitempty"`
	Nonce uint64 `json:"nonce,omitempty"`

	// push: monotonic sequence number (0 = heartbeat, never applied),
	// the epoch the delta was counted under, and the delta itself.
	Seq   uint64               `json:"seq,omitempty"`
	Epoch int64                `json:"epoch,omitempty"`
	Delta *node.AdmissionDelta `json:"delta,omitempty"`

	// agg / reject: the service's current salt epoch and salt. agg
	// additionally carries the merged aggregate, the seq it
	// acknowledges (0 for hello replies and heartbeats), and whether
	// the aggregate is still warming (too young to trust).
	Salt    uint64                   `json:"salt,omitempty"`
	AckSeq  uint64                   `json:"ack_seq,omitempty"`
	Agg     *node.AdmissionAggregate `json:"agg,omitempty"`
	Warming bool                     `json:"warming,omitempty"`
}

// writeSyncMsg marshals and frames one message.
func writeSyncMsg(w io.Writer, m syncMsg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("cluster: encode %s: %w", m.Type, err)
	}
	return frame.Write(w, payload, maxSyncFrame)
}

// readSyncMsg reads one frame and decodes its message.
func readSyncMsg(r io.Reader) (syncMsg, error) {
	payload, err := frame.Read(r, maxSyncFrame)
	if err != nil {
		return syncMsg{}, err
	}
	return decodeSyncMsg(payload)
}

// decodeSyncMsg parses and validates one frame payload. Every
// malformation returns an error — it never panics, which
// FuzzStateSyncDecode enforces.
func decodeSyncMsg(payload []byte) (syncMsg, error) {
	var m syncMsg
	if err := json.Unmarshal(payload, &m); err != nil {
		return syncMsg{}, fmt.Errorf("cluster: decode frame: %w", err)
	}
	switch m.Type {
	case syncHello:
		if m.Node == "" {
			return syncMsg{}, fmt.Errorf("cluster: hello without a node name")
		}
		if len(m.Node) > maxNodeName {
			return syncMsg{}, fmt.Errorf("cluster: node name %d bytes exceeds %d", len(m.Node), maxNodeName)
		}
	case syncPush:
		if m.Seq > 0 && m.Delta == nil {
			return syncMsg{}, fmt.Errorf("cluster: push seq %d without a delta", m.Seq)
		}
		if m.Epoch < 0 {
			return syncMsg{}, fmt.Errorf("cluster: negative epoch %d", m.Epoch)
		}
	case syncAgg:
		if m.Agg == nil {
			return syncMsg{}, fmt.Errorf("cluster: agg message without an aggregate")
		}
		if m.Epoch <= 0 {
			return syncMsg{}, fmt.Errorf("cluster: agg with epoch %d", m.Epoch)
		}
	case syncReject:
		if m.Epoch <= 0 {
			return syncMsg{}, fmt.Errorf("cluster: reject with epoch %d", m.Epoch)
		}
	default:
		return syncMsg{}, fmt.Errorf("cluster: unknown message type %q", m.Type)
	}
	return m, nil
}

// saltOf derives the requester-hash salt from a salt epoch
// (SplitMix64's finalizer). Deriving rather than drawing keeps the
// pair self-consistent: any two parties that agree on the epoch agree
// on the salt, and a snapshot need only record the epoch.
func saltOf(epoch int64) uint64 {
	z := uint64(epoch) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
