package orchestrate

// The wire protocol: length-prefixed, checksummed JSON frames, using
// the shared internal/frame format (4-byte big-endian length, 4-byte
// CRC-32 IEEE, payload). JSON keeps the protocol debuggable and reuses
// the exact encodings that define the content addresses (a Point's
// wire form and its digest input are the same encoding); the CRC
// catches truncation and corruption before a frame can reach
// json.Unmarshal, and the length bound keeps a corrupt header from
// provoking a huge allocation.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/frame"
)

// maxFramePayload bounds a frame payload. Results carry per-peer load
// slices, so frames scale with NetworkSize; 256 MiB accommodates the
// million-peer configurations with an order of magnitude to spare
// while still rejecting nonsense lengths from corrupt headers.
const maxFramePayload = 256 << 20

var (
	// ErrFrameCorrupt reports a frame whose payload does not match its
	// checksum.
	ErrFrameCorrupt = frame.ErrCorrupt
	// ErrFrameTooLarge reports a frame header declaring a payload over
	// the size bound.
	ErrFrameTooLarge = frame.ErrTooLarge
)

// writeFrame writes one frame in the shared internal/frame format.
func writeFrame(w io.Writer, payload []byte) error {
	return frame.Write(w, payload, maxFramePayload)
}

// readFrame reads one frame and verifies its checksum. A short read
// mid-frame surfaces as io.ErrUnexpectedEOF; a clean EOF before any
// header byte surfaces as io.EOF, so callers can tell a closed peer
// from a truncated frame.
func readFrame(r io.Reader) ([]byte, error) {
	return frame.Read(r, maxFramePayload)
}

// msgType discriminates protocol messages.
type msgType string

const (
	// msgHello is the worker's first message: its name.
	msgHello msgType = "hello"
	// msgUnit carries a work unit, coordinator → worker.
	msgUnit msgType = "unit"
	// msgResult carries a completed unit, worker → coordinator.
	msgResult msgType = "result"
	// msgError reports a unit the worker could not execute.
	msgError msgType = "error"
)

// message is the protocol envelope; Type selects which fields are
// meaningful.
type message struct {
	Type   msgType     `json:"type"`
	Worker string      `json:"worker,omitempty"` // hello: worker name
	Unit   *workUnit   `json:"unit,omitempty"`   // unit
	Result *unitResult `json:"result,omitempty"` // result
	UnitID int         `json:"unit_id"`          // error: which unit failed
	Error  string      `json:"error,omitempty"`  // error: why
}

// workUnit is one dispatched sweep point. ID sequences units within a
// run; Key is the point's content address (experiments.Point.Key), the
// same sha256 params digest the in-process sweep memo uses, so the
// worker can verify the unit decoded intact and caches can share
// entries with local runs.
type workUnit struct {
	ID    int               `json:"id"`
	Key   string            `json:"key"`
	Point experiments.Point `json:"point"`
}

// unitResult is one completed unit.
type unitResult struct {
	ID     int                     `json:"id"`
	Key    string                  `json:"key"`
	Result experiments.PointResult `json:"result"`
}

// sendMsg marshals and frames one message.
func sendMsg(w io.Writer, m message) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("orchestrate: encode %s: %w", m.Type, err)
	}
	return writeFrame(w, payload)
}

// recvMsg reads and decodes one message, checking the envelope carries
// the payload its type requires.
func recvMsg(r io.Reader) (message, error) {
	payload, err := readFrame(r)
	if err != nil {
		return message{}, err
	}
	var m message
	if err := json.Unmarshal(payload, &m); err != nil {
		return message{}, fmt.Errorf("orchestrate: decode frame: %w", err)
	}
	switch m.Type {
	case msgHello:
		if m.Worker == "" {
			return message{}, errors.New("orchestrate: hello without a worker name")
		}
	case msgUnit:
		if m.Unit == nil {
			return message{}, errors.New("orchestrate: unit message without a unit")
		}
	case msgResult:
		if m.Result == nil {
			return message{}, errors.New("orchestrate: result message without a result")
		}
	case msgError:
		if m.Error == "" {
			return message{}, errors.New("orchestrate: error message without an error")
		}
	default:
		return message{}, fmt.Errorf("orchestrate: unknown message type %q", m.Type)
	}
	return m, nil
}
