package memnet

import (
	"testing"
	"time"
)

// benchDeliver times one datagram from WriteToUDPAddrPort to
// ReadFromUDPAddrPort on one goroutine (an undelayed copy lands inside
// the write), under the given default profile.
func benchDeliver(b *testing.B, p LinkProfile) {
	nw := New(1)
	nw.SetDefaultProfile(p)
	src, dst := nw.Listen(), nw.Listen()
	defer src.Close()
	defer dst.Close()
	payload := make([]byte, 64)
	buf := make([]byte, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.WriteToUDPAddrPort(payload, dst.AddrPort()); err != nil {
			b.Fatal(err)
		}
		for dst.queued() > 0 {
			if _, _, err := dst.ReadFromUDPAddrPort(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeliverPerfect is the fault-free path the node workloads
// run on: no link stream, no profile lookup.
func BenchmarkDeliverPerfect(b *testing.B) { benchDeliver(b, LinkProfile{}) }

// BenchmarkDeliverFaulty draws loss and duplication for every packet.
func BenchmarkDeliverFaulty(b *testing.B) { benchDeliver(b, LinkProfile{Loss: 0.1, DupProb: 0.1}) }

// BenchmarkDeadlineRoundTrip times one datagram there and back between
// two goroutines, the reader setting a 1 s deadline on each round trip
// as a raw requester does on each probe; the echo side reads with no
// deadline, as a node's serve loop does. Unlike the BenchmarkDeliver
// pair, every read here may have to wait.
func BenchmarkDeadlineRoundTrip(b *testing.B) {
	nw := New(1)
	a, echo := nw.Listen(), nw.Listen()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, from, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := echo.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64)
	buf := make([]byte, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.WriteToUDPAddrPort(payload, echo.AddrPort()); err != nil {
			b.Fatal(err)
		}
		a.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := a.ReadFromUDPAddrPort(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a.Close()
	echo.Close()
	<-done
}
