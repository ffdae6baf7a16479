package wire

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func entry(ip string, port uint16, files uint32, res uint16) PongEntry {
	return PongEntry{
		Addr:     netip.AddrPortFrom(netip.MustParseAddr(ip), port),
		NumFiles: files,
		NumRes:   res,
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	pkt, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.Type(), err)
	}
	if len(pkt) > MaxPacket {
		t.Fatalf("packet %d bytes exceeds MaxPacket", len(pkt))
	}
	got, err := Decode(pkt)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Type(), err)
	}
	return got
}

func TestRoundTrips(t *testing.T) {
	tests := []Message{
		&Ping{MsgID: 42, NumFiles: 1234},
		&Pong{MsgID: 7},
		&Pong{MsgID: 7, Entries: []PongEntry{
			entry("10.0.0.1", 6346, 100, 2),
			entry("2001:db8::1", 9999, 0, 0),
		}},
		&Query{MsgID: 1, Desired: 3, NumFiles: 55, Keyword: "free bird"},
		&Query{MsgID: 1, Desired: 0, NumFiles: 0, Keyword: ""},
		&QueryHit{MsgID: 9, Results: []string{"free bird.mp3", "freebird live.ogg"},
			Pong: []PongEntry{entry("192.168.1.2", 6346, 9, 1)}},
		&QueryHit{MsgID: 9},
		&Busy{MsgID: 1<<64 - 1},
	}
	for _, m := range tests {
		t.Run(m.Type().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if !reflect.DeepEqual(normalize(got), normalize(m)) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
		})
	}
}

// normalize maps empty slices to nil for comparison.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *Pong:
		if len(v.Entries) == 0 {
			return &Pong{MsgID: v.MsgID}
		}
	case *QueryHit:
		cp := *v
		if len(cp.Results) == 0 {
			cp.Results = nil
		}
		if len(cp.Pong) == 0 {
			cp.Pong = nil
		}
		return &cp
	}
	return m
}

// TestDecoderReuse: a Decoder's messages are overwritten in full, so a
// smaller message decoded after a larger one of the same type shows
// nothing of it.
func TestDecoderReuse(t *testing.T) {
	five := []PongEntry{
		entry("10.0.0.1", 6346, 100, 2),
		entry("10.0.0.2", 6346, 3, 0),
		entry("2001:db8::3", 6346, 88, 1),
		entry("10.0.0.4", 6346, 12, 0),
		entry("10.0.0.5", 6346, 0, 0),
	}
	for _, tc := range []struct {
		name        string
		first, then Message
	}{
		{"hit after a bigger hit",
			&QueryHit{MsgID: 1, Results: []string{"a.mp3", "b.mp3", "c.mp3"}, Pong: five},
			&QueryHit{MsgID: 2, Results: []string{"d.ogg"}}},
		{"empty hit after a hit", &QueryHit{MsgID: 1, Results: []string{"a"}, Pong: five[:1]}, &QueryHit{MsgID: 2}},
		{"pong after a bigger pong", &Pong{MsgID: 1, Entries: five}, &Pong{MsgID: 2, Entries: five[3:]}},
		{"empty pong after a pong", &Pong{MsgID: 1, Entries: five}, &Pong{MsgID: 2}},
		{"query after a query",
			&Query{MsgID: 1, Desired: 9, NumFiles: 4, Keyword: "free bird"},
			&Query{MsgID: 2, Desired: 1, Keyword: "x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d Decoder
			for _, m := range []Message{tc.first, tc.then} {
				pkt, err := Encode(m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Decode(pkt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Decode(pkt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(normalize(got), normalize(m)) {
					t.Fatalf("reused Decoder gave %#v, want %#v", got, want)
				}
			}
		})
	}
}

func TestEncodeLimits(t *testing.T) {
	longName := strings.Repeat("x", MaxNameLen+1)
	manyEntries := make([]PongEntry, MaxPongEntries+1)
	for i := range manyEntries {
		manyEntries[i] = entry("10.0.0.1", 1, 1, 1)
	}
	manyHits := make([]string, MaxHits+1)
	for i := range manyHits {
		manyHits[i] = "f"
	}
	tests := []struct {
		name string
		m    Message
	}{
		{"long keyword", &Query{Keyword: longName}},
		{"too many pong entries", &Pong{Entries: manyEntries}},
		{"too many hits", &QueryHit{Results: manyHits}},
		{"long result name", &QueryHit{Results: []string{longName}}},
		{"invalid address", &Pong{Entries: []PongEntry{{}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Encode(tt.m); err == nil {
				t.Fatal("Encode accepted over-limit message")
			}
		})
	}
}

// oneOfEach is one message of every type, shaped like the live node's
// traffic: a full five-entry pong, a query hit with a result.
func oneOfEach() []Message {
	pong := []PongEntry{
		entry("10.0.0.1", 6346, 100, 2),
		entry("10.0.0.2", 6346, 3, 0),
		entry("2001:db8::3", 6346, 88, 1),
		entry("10.0.0.4", 6346, 12, 0),
		entry("10.0.0.5", 6346, 0, 0),
	}
	return []Message{
		&Ping{MsgID: 42, NumFiles: 1234},
		&Pong{MsgID: 7, Entries: pong},
		&Query{MsgID: 1, Desired: 3, NumFiles: 55, Keyword: "free bird"},
		&QueryHit{MsgID: 9, Results: []string{"free bird.mp3"}, Pong: pong},
		&Busy{MsgID: 1<<64 - 1},
	}
}

func TestAppendEncode(t *testing.T) {
	prefix := []byte("already here")
	for _, m := range oneOfEach() {
		want, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEncode(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatalf("AppendEncode(%v): %v", m.Type(), err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendEncode(%v) = %x, want the prefix then %x", m.Type(), got, want)
		}
	}
	// A message that does not encode leaves dst as it was, whether the
	// payload or the packet budget refused it.
	big := make([]string, MaxHits)
	for i := range big {
		big[i] = strings.Repeat("x", MaxNameLen)
	}
	for _, m := range []Message{&Pong{Entries: []PongEntry{{}}}, &QueryHit{Results: big}} {
		got, err := AppendEncode(prefix, m)
		if err == nil || !bytes.Equal(got, prefix) {
			t.Fatalf("AppendEncode of an unencodable %v = %x, %v; want the prefix and an error", m.Type(), got, err)
		}
	}
}

// TestRoundTripAllocs pins what a datagram costs the heap: nothing to
// encode into a buffer the sender already has, to decode only what the
// decoded message is made of, and into a Decoder that has decoded one
// before only the strings it carries.
func TestRoundTripAllocs(t *testing.T) {
	decodeAllocs := map[Type]float64{
		TypePing:     1, // the message
		TypePong:     2, // ... and its entries
		TypeQuery:    2, // ... and its keyword
		TypeQueryHit: 4, // ... its results, one name, its entries
		TypeBusy:     1,
	}
	reusedAllocs := map[Type]float64{TypeQuery: 1, TypeQueryHit: 1}
	var d Decoder
	buf := make([]byte, 0, MaxPacket)
	for _, m := range oneOfEach() {
		var pkt []byte
		if got := testing.AllocsPerRun(100, func() {
			var err error
			if pkt, err = AppendEncode(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("AppendEncode(%v) into a reused buffer: %.0f allocs, want 0", m.Type(), got)
		}
		if got, want := testing.AllocsPerRun(100, func() {
			if _, err := Decode(pkt); err != nil {
				t.Fatal(err)
			}
		}), decodeAllocs[m.Type()]; got > want {
			t.Errorf("Decode(%v): %.0f allocs, want at most %.0f", m.Type(), got, want)
		}
		if got, want := testing.AllocsPerRun(100, func() {
			if _, err := d.Decode(pkt); err != nil {
				t.Fatal(err)
			}
		}), reusedAllocs[m.Type()]; got > want {
			t.Errorf("Decoder.Decode(%v) reused: %.0f allocs, want at most %.0f", m.Type(), got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	valid, err := Encode(&Ping{MsgID: 1, NumFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		pkt  []byte
	}{
		{"empty", nil},
		{"short", valid[:5]},
		{"bad magic", append([]byte{'X', 'U'}, valid[2:]...)},
		{"bad version", append([]byte{'G', 'U', 99}, valid[3:]...)},
		{"bad type", func() []byte {
			p := append([]byte(nil), valid...)
			p[3] = 99
			return p
		}()},
		{"truncated payload", valid[:len(valid)-1]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"lying length", func() []byte {
			p := append([]byte(nil), valid...)
			p[13]++
			return p
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.pkt); !errors.Is(err, ErrMalformed) {
				t.Fatalf("Decode = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestDecodeTruncatedStructures(t *testing.T) {
	// A pong whose declared entry count exceeds the bytes present.
	pkt, err := Encode(&Pong{MsgID: 1, Entries: []PongEntry{entry("10.0.0.1", 1, 1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	p := append([]byte(nil), pkt...)
	p[HeaderSize] = 5 // claim 5 entries
	if _, err := Decode(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Decode = %v, want ErrMalformed", err)
	}
}

// TestDecodeNeverPanics fuzzes the decoder with random bytes; it must
// return an error or a message, never panic.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanicsOnMutations flips bytes of valid packets.
func TestDecodeNeverPanicsOnMutations(t *testing.T) {
	msgs := []Message{
		&Pong{MsgID: 3, Entries: []PongEntry{entry("10.1.2.3", 80, 7, 1), entry("2001:db8::2", 8080, 1, 0)}},
		&QueryHit{MsgID: 4, Results: []string{"a", "bb"}, Pong: []PongEntry{entry("1.2.3.4", 5, 6, 7)}},
	}
	for _, m := range msgs {
		pkt, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(pkt); i++ {
			for _, delta := range []byte{1, 0x7f, 0xff} {
				mutated := append([]byte(nil), pkt...)
				mutated[i] ^= delta
				_, _ = Decode(mutated) // must not panic
			}
		}
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		TypePing: "Ping", TypePong: "Pong", TypeQuery: "Query",
		TypeQueryHit: "QueryHit", TypeBusy: "Busy", Type(77): "Type(77)",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func BenchmarkEncodePong(b *testing.B) {
	m := &Pong{MsgID: 1, Entries: []PongEntry{
		entry("10.0.0.1", 6346, 100, 2),
		entry("10.0.0.2", 6346, 3, 0),
		entry("10.0.0.3", 6346, 88, 1),
		entry("10.0.0.4", 6346, 12, 0),
		entry("10.0.0.5", 6346, 0, 0),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEncodeQueryHit(b *testing.B) {
	m := oneOfEach()[3]
	buf := make([]byte, 0, MaxPacket)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEncode(buf[:0], m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePong(b *testing.B) {
	m := &Pong{MsgID: 1, Entries: []PongEntry{
		entry("10.0.0.1", 6346, 100, 2),
		entry("10.0.0.2", 6346, 3, 0),
	}}
	pkt, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
