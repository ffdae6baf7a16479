package wire

import (
	"net/netip"
	"reflect"
	"testing"
)

// fuzzSeeds returns one valid encoding of each of the five message
// types plus edge-case variants, so the fuzzer starts from the full
// grammar.
func fuzzSeeds(t testing.TB) [][]byte {
	entries := []PongEntry{
		{Addr: netip.MustParseAddrPort("10.0.0.1:6346"), NumFiles: 120, NumRes: 3},
		{Addr: netip.MustParseAddrPort("[2001:db8::1]:9"), NumFiles: 0, NumRes: 65535},
	}
	msgs := []Message{
		&Ping{MsgID: 1, NumFiles: 42},
		&Pong{MsgID: 2, Entries: entries},
		&Pong{MsgID: 3}, // empty pong
		&Query{MsgID: 4, Desired: 5, NumFiles: 7, Keyword: "free bird"},
		&QueryHit{MsgID: 5, Results: []string{"free bird.mp3", ""}, Pong: entries},
		&QueryHit{MsgID: 6}, // empty hit
		&Busy{MsgID: 7},
	}
	seeds := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("seed encode %T: %v", m, err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzDecode asserts the decoder never panics on arbitrary bytes and
// that anything it accepts round-trips: re-encoding an accepted
// message and decoding it again must reproduce the message exactly. A
// Decoder shared across every input must agree with a fresh Decode on
// each, so nothing one message leaves behind shows in the next.
func FuzzDecode(f *testing.F) {
	var shared Decoder
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	// Structurally hostile inputs: truncated header, bad magic, huge
	// declared lengths.
	f.Add([]byte{})
	f.Add([]byte{'G', 'U'})
	f.Add([]byte{'G', 'U', 1, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff})
	f.Add([]byte("GU\x01\x02\x00\x00\x00\x00\x00\x00\x00\x09\x00\x01\x21"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data) // must never panic
		reused, reusedErr := shared.Decode(data)
		if (err == nil) != (reusedErr == nil) || !reflect.DeepEqual(m, reused) {
			t.Fatalf("a shared Decoder gave %#v, %v; Decode gave %#v, %v\ninput: %x", reused, reusedErr, m, err, data)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned both a message and error %v", err)
			}
			return
		}
		reencoded, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v\ninput: %x", err, data)
		}
		m2, err := Decode(reencoded)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v\ninput: %x", err, data)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed message:\n%#v\n%#v", m, m2)
		}
	})
}

// TestFuzzSeedsRoundTrip keeps the seed corpus exercised in ordinary
// test runs (fuzz targets only run seeds under `go test`, but this
// also pins the corpus as valid).
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		m, err := Decode(seed)
		if err != nil {
			t.Fatalf("seed %d does not decode: %v", i, err)
		}
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("seed %d does not re-encode: %v", i, err)
		}
		m2, err := Decode(b)
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("seed %d round trip broken: %v", i, err)
		}
	}
}
