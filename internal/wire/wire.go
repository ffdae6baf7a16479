// Package wire defines the GUESS datagram protocol: the message
// formats a live (non-simulated) GUESS node exchanges over UDP.
//
// GUESS is specified as a successor to Gnutella that replaces flooded
// TCP messages with unicast UDP probes. This package implements a
// compact binary encoding of the four protocol messages — Ping, Pong,
// Query and QueryHit — plus Busy, the overload refusal the paper's
// capacity-limit mechanism requires (Section 6.3). Per the protocol,
// a QueryHit carries a piggy-backed pong so every probe grows the
// querier's query cache.
//
// Encoding is fixed-layout big-endian with explicit length prefixes,
// sized to fit comfortably in a single non-fragmented UDP datagram.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol constants.
const (
	// Magic prefixes every datagram.
	Magic0, Magic1 = 'G', 'U'
	// Version is the protocol version this package implements.
	Version = 1
	// HeaderSize is the fixed header length in bytes.
	HeaderSize = 14
	// MaxPacket bounds an encoded message (safe single-datagram size).
	MaxPacket = 1400
	// MaxPongEntries bounds the address entries in one pong.
	MaxPongEntries = 32
	// MaxHits bounds result names in one QueryHit.
	MaxHits = 64
	// MaxNameLen bounds a result or keyword string.
	MaxNameLen = 255
)

// Type identifies a message kind.
type Type uint8

// Message types.
const (
	TypePing Type = iota + 1
	TypePong
	TypeQuery
	TypeQueryHit
	TypeBusy
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TypePing:
		return "Ping"
	case TypePong:
		return "Pong"
	case TypeQuery:
		return "Query"
	case TypeQueryHit:
		return "QueryHit"
	case TypeBusy:
		return "Busy"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ErrMalformed reports an undecodable datagram.
var ErrMalformed = errors.New("wire: malformed message")

// Message is any GUESS protocol message.
type Message interface {
	// Type returns the message kind.
	Type() Type
	// ID returns the correlation identifier (echoed in replies).
	ID() uint64

	encodePayload(dst []byte) ([]byte, error)
}

// PongEntry is one shared cache pointer: the on-the-wire form of the
// paper's {IP, TS, NumFiles, NumRes} cache entry. TS is omitted — a
// receiver timestamps entries itself (trusting a remote clock would be
// meaningless).
type PongEntry struct {
	// Addr is the peer's UDP address (IPv4 or IPv6).
	Addr netip.AddrPort
	// NumFiles is the number of files the peer advertises.
	NumFiles uint32
	// NumRes is the number of results it last returned.
	NumRes uint16
}

// Ping is the cache-maintenance probe. The sender advertises its own
// file count so the receiver's introduction protocol can build a cache
// entry for it.
type Ping struct {
	MsgID    uint64
	NumFiles uint32
}

// Pong answers a Ping with shared cache entries.
type Pong struct {
	MsgID   uint64
	Entries []PongEntry
}

// Query is a unicast probe asking for up to Desired results matching
// Keyword. NumFiles advertises the sender for introduction.
type Query struct {
	MsgID    uint64
	Desired  uint8
	NumFiles uint32
	Keyword  string
}

// QueryHit answers a Query with matching file names and a piggy-backed
// pong.
type QueryHit struct {
	MsgID   uint64
	Results []string
	Pong    []PongEntry
}

// Busy tells a prober the receiver is over its probe capacity and the
// prober should back off.
type Busy struct {
	MsgID uint64
}

// Interface compliance.
var (
	_ Message = (*Ping)(nil)
	_ Message = (*Pong)(nil)
	_ Message = (*Query)(nil)
	_ Message = (*QueryHit)(nil)
	_ Message = (*Busy)(nil)
)

// Type implements Message.
func (*Ping) Type() Type     { return TypePing }
func (*Pong) Type() Type     { return TypePong }
func (*Query) Type() Type    { return TypeQuery }
func (*QueryHit) Type() Type { return TypeQueryHit }
func (*Busy) Type() Type     { return TypeBusy }

// ID implements Message.
func (m *Ping) ID() uint64     { return m.MsgID }
func (m *Pong) ID() uint64     { return m.MsgID }
func (m *Query) ID() uint64    { return m.MsgID }
func (m *QueryHit) ID() uint64 { return m.MsgID }
func (m *Busy) ID() uint64     { return m.MsgID }

// Encode serializes a message into a fresh buffer.
func Encode(m Message) ([]byte, error) {
	buf, err := AppendEncode(make([]byte, 0, 64), m)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendEncode appends the encoding of m to dst and returns the
// extended slice, so a sender can reuse one buffer across messages. On
// error it returns dst unextended.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, Magic0, Magic1, Version, byte(m.Type()))
	dst = binary.BigEndian.AppendUint64(dst, m.ID())
	dst = append(dst, 0, 0) // payload length, patched below
	out, err := m.encodePayload(dst)
	if err != nil {
		return dst[:start], err
	}
	payloadLen := len(out) - start - HeaderSize
	if payloadLen > MaxPacket-HeaderSize {
		return dst[:start], fmt.Errorf("wire: %s payload %d bytes exceeds packet budget", m.Type(), payloadLen)
	}
	binary.BigEndian.PutUint16(out[start+12:start+14], uint16(payloadLen))
	return out, nil
}

func (m *Ping) encodePayload(dst []byte) ([]byte, error) {
	return binary.BigEndian.AppendUint32(dst, m.NumFiles), nil
}

func (m *Pong) encodePayload(dst []byte) ([]byte, error) {
	return appendEntries(dst, m.Entries)
}

func (m *Query) encodePayload(dst []byte) ([]byte, error) {
	if len(m.Keyword) > MaxNameLen {
		return nil, fmt.Errorf("wire: keyword %d bytes exceeds %d", len(m.Keyword), MaxNameLen)
	}
	dst = append(dst, m.Desired)
	dst = binary.BigEndian.AppendUint32(dst, m.NumFiles)
	dst = append(dst, byte(len(m.Keyword)))
	return append(dst, m.Keyword...), nil
}

func (m *QueryHit) encodePayload(dst []byte) ([]byte, error) {
	if len(m.Results) > MaxHits {
		return nil, fmt.Errorf("wire: %d results exceed %d", len(m.Results), MaxHits)
	}
	dst = append(dst, byte(len(m.Results)))
	for _, name := range m.Results {
		if len(name) > MaxNameLen {
			return nil, fmt.Errorf("wire: result name %d bytes exceeds %d", len(name), MaxNameLen)
		}
		dst = append(dst, byte(len(name)))
		dst = append(dst, name...)
	}
	return appendEntries(dst, m.Pong)
}

func (m *Busy) encodePayload(dst []byte) ([]byte, error) { return dst, nil }

// appendEntries writes a count-prefixed pong entry list.
func appendEntries(dst []byte, entries []PongEntry) ([]byte, error) {
	if len(entries) > MaxPongEntries {
		return nil, fmt.Errorf("wire: %d pong entries exceed %d", len(entries), MaxPongEntries)
	}
	dst = append(dst, byte(len(entries)))
	for _, e := range entries {
		var err error
		if dst, err = AppendPongEntry(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendPongEntry writes one pong entry, addrSize u8 (4|16) | addr |
// port u16 | numFiles u32 | numRes u16, to dst. An IPv4 address takes 4
// bytes; any other, IPv4-mapped IPv6 included, takes 16.
func AppendPongEntry(dst []byte, e PongEntry) ([]byte, error) {
	if !e.Addr.IsValid() {
		return nil, fmt.Errorf("wire: invalid pong entry address")
	}
	addr := e.Addr.Addr()
	if addr.Is4() {
		dst = append(dst, 4)
		b := addr.As4()
		dst = append(dst, b[:]...)
	} else {
		dst = append(dst, 16)
		b := addr.As16()
		dst = append(dst, b[:]...)
	}
	dst = binary.BigEndian.AppendUint16(dst, e.Addr.Port())
	dst = binary.BigEndian.AppendUint32(dst, e.NumFiles)
	return binary.BigEndian.AppendUint16(dst, e.NumRes), nil
}

// DecodePongEntry parses the pong entry AppendPongEntry writes at the
// front of b and returns it with the number of bytes it took. A bad
// address size or a short b is ErrMalformed.
func DecodePongEntry(b []byte) (PongEntry, int, error) {
	if len(b) == 0 {
		return PongEntry{}, 0, fmt.Errorf("%w: truncated payload", ErrMalformed)
	}
	size := int(b[0])
	if size != 4 && size != 16 {
		return PongEntry{}, 0, fmt.Errorf("%w: address size %d", ErrMalformed, size)
	}
	n := 1 + size + 8
	if len(b) < n {
		return PongEntry{}, 0, fmt.Errorf("%w: truncated payload", ErrMalformed)
	}
	var addr netip.Addr
	if size == 4 {
		addr = netip.AddrFrom4([4]byte(b[1:5]))
	} else {
		addr = netip.AddrFrom16([16]byte(b[1:17]))
	}
	rest := b[1+size : n]
	return PongEntry{
		Addr:     netip.AddrPortFrom(addr, binary.BigEndian.Uint16(rest[0:2])),
		NumFiles: binary.BigEndian.Uint32(rest[2:6]),
		NumRes:   binary.BigEndian.Uint16(rest[6:8]),
	}, n, nil
}

// Decode parses a datagram into a message of its own. It returns
// ErrMalformed (wrapped with detail) for anything that does not parse
// exactly.
func Decode(pkt []byte) (Message, error) { return new(Decoder).Decode(pkt) }

// Decoder decodes datagram after datagram into messages it owns, one of
// each type, made on first use, so that a reader that is done with each
// message before the next read allocates only the strings a message
// carries. The zero value is ready to use.
type Decoder struct {
	ping  *Ping
	pong  *Pong
	query *Query
	hit   *QueryHit
	busy  *Busy
}

// reuse returns *m, made first if it is nil.
func reuse[T any](m **T) *T {
	if *m == nil {
		*m = new(T)
	}
	return *m
}

// Decode parses a datagram like the package's Decode, into the
// decoder's message of its type: the result, its slices included, is
// valid until the next call. The strings in it are the caller's to keep.
func (d *Decoder) Decode(pkt []byte) (Message, error) {
	if len(pkt) < HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes < header", ErrMalformed, len(pkt))
	}
	if pkt[0] != Magic0 || pkt[1] != Magic1 {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	if pkt[2] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrMalformed, pkt[2])
	}
	msgType := Type(pkt[3])
	msgID := binary.BigEndian.Uint64(pkt[4:12])
	payloadLen := int(binary.BigEndian.Uint16(pkt[12:14]))
	payload := pkt[HeaderSize:]
	if len(payload) != payloadLen {
		return nil, fmt.Errorf("%w: payload length %d, declared %d", ErrMalformed, len(payload), payloadLen)
	}
	r := reader{buf: payload}
	switch msgType {
	case TypePing:
		numFiles, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		m := reuse(&d.ping)
		*m = Ping{MsgID: msgID, NumFiles: numFiles}
		return m, nil
	case TypePong:
		entries, err := r.entries(reuse(&d.pong).Entries)
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		m := reuse(&d.pong)
		*m = Pong{MsgID: msgID, Entries: entries}
		return m, nil
	case TypeQuery:
		desired, err := r.byte()
		if err != nil {
			return nil, err
		}
		numFiles, err := r.uint32()
		if err != nil {
			return nil, err
		}
		keyword, err := r.shortString()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		m := reuse(&d.query)
		*m = Query{MsgID: msgID, Desired: desired, NumFiles: numFiles, Keyword: keyword}
		return m, nil
	case TypeQueryHit:
		count, err := r.byte()
		if err != nil {
			return nil, err
		}
		if int(count) > MaxHits {
			return nil, fmt.Errorf("%w: %d hits exceed %d", ErrMalformed, count, MaxHits)
		}
		results := reuse(&d.hit).Results[:0]
		if results == nil || cap(results) < int(count) {
			results = make([]string, 0, count)
		}
		for i := 0; i < int(count); i++ {
			name, err := r.shortString()
			if err != nil {
				return nil, err
			}
			results = append(results, name)
		}
		entries, err := r.entries(d.hit.Pong)
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		m := reuse(&d.hit)
		*m = QueryHit{MsgID: msgID, Results: results, Pong: entries}
		return m, nil
	case TypeBusy:
		if err := r.done(); err != nil {
			return nil, err
		}
		m := reuse(&d.busy)
		*m = Busy{MsgID: msgID}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrMalformed, pkt[3])
	}
}

// reader is a bounds-checked cursor over a payload.
type reader struct {
	buf []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("%w: truncated payload", ErrMalformed)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) uint32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) shortString() (string, error) {
	n, err := r.byte()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// entries reads a count-prefixed pong entry list into dst's storage,
// or, when there is none or too little, into a slice of exactly the
// entries; either way an empty list is an empty slice, not nil.
func (r *reader) entries(dst []PongEntry) ([]PongEntry, error) {
	count, err := r.byte()
	if err != nil {
		return nil, err
	}
	if int(count) > MaxPongEntries {
		return nil, fmt.Errorf("%w: %d pong entries exceed %d", ErrMalformed, count, MaxPongEntries)
	}
	entries := dst[:0]
	if entries == nil || cap(entries) < int(count) {
		entries = make([]PongEntry, 0, count)
	}
	for i := 0; i < int(count); i++ {
		e, n, err := DecodePongEntry(r.buf[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += n
		entries = append(entries, e)
	}
	return entries, nil
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return nil
}
