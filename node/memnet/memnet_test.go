package memnet

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"

	"repro/internal/dist"
)

func TestBasicDelivery(t *testing.T) {
	nw := New(1)
	a := nw.Listen()
	b := nw.Listen()
	defer a.Close()
	defer b.Close()

	msg := []byte("hello")
	if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, from, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello" {
		t.Fatalf("payload %q", buf[:n])
	}
	if from.String() != a.LocalAddr().String() {
		t.Fatalf("from = %v, want %v", from, a.LocalAddr())
	}
}

func TestDistinctAddresses(t *testing.T) {
	nw := New(1)
	a := nw.Listen()
	b := nw.Listen()
	if a.LocalAddr().String() == b.LocalAddr().String() {
		t.Fatal("endpoints share an address")
	}
}

func TestReadDeadline(t *testing.T) {
	nw := New(1)
	c := nw.Listen()
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 8)
	_, _, err := c.ReadFrom(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Expired deadline fails immediately.
	c.SetReadDeadline(time.Now().Add(-time.Second))
	if _, _, err := c.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestClose(t *testing.T) {
	nw := New(1)
	a := nw.Listen()
	b := nw.Listen()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	// Reads on a closed conn fail.
	if _, _, err := b.ReadFrom(make([]byte, 8)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	// Writes to a closed endpoint vanish; writes from a closed conn
	// fail.
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal("write to dead endpoint should not error (UDP semantics)")
	}
	if _, err := b.WriteTo([]byte("x"), a.LocalAddr()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write from closed conn: %v", err)
	}
}

func TestPartition(t *testing.T) {
	nw := New(1)
	a := nw.Listen()
	b := nw.Listen()
	defer a.Close()
	defer b.Close()
	nw.Partition(addrPortOf(t, b))
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := b.ReadFrom(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partitioned endpoint still received: %v", err)
	}
}

func TestLossDropsRoughlyFraction(t *testing.T) {
	nw := New(7)
	nw.SetLoss(0.5)
	a := nw.Listen()
	b := nw.Listen()
	defer a.Close()
	defer b.Close()
	const sent = 400
	for i := 0; i < sent; i++ {
		if _, err := a.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	buf := make([]byte, 8)
	for {
		b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		if _, _, err := b.ReadFrom(buf); err != nil {
			break
		}
		received++
	}
	if received < sent/4 || received > 3*sent/4 {
		t.Fatalf("received %d of %d at 50%% loss", received, sent)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	nw := New(1)
	nw.SetLatency(60 * time.Millisecond)
	a := nw.Listen()
	b := nw.Listen()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~60ms", elapsed)
	}
}

func TestPayloadIsolated(t *testing.T) {
	nw := New(1)
	a := nw.Listen()
	b := nw.Listen()
	defer a.Close()
	defer b.Close()
	msg := []byte("mutate-me")
	if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X' // sender reuses its buffer
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "mutate-me" {
		t.Fatalf("payload shared with sender buffer: %q", buf[:n])
	}
}

func addrPortOf(t *testing.T, c *Conn) netip.AddrPort {
	t.Helper()
	u, ok := c.LocalAddr().(*net.UDPAddr)
	if !ok {
		t.Fatal("unexpected addr type")
	}
	return u.AddrPort()
}

func TestSetWriteDeadline(t *testing.T) {
	nw := New(1)
	c := nw.Listen()
	defer c.Close()
	if err := c.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatalf("clearing write deadline: %v", err)
	}
	err := c.SetWriteDeadline(time.Now().Add(time.Second))
	if !errors.Is(err, ErrWriteDeadlineUnsupported) {
		t.Fatalf("SetWriteDeadline = %v, want ErrWriteDeadlineUnsupported", err)
	}
	// The conn still works after the refused call.
	if _, err := c.WriteTo([]byte("x"), c.LocalAddr()); err != nil {
		t.Fatal(err)
	}
}

// recvAll drains b until a read deadline expires, returning payloads.
func recvAll(t *testing.T, b *Conn, wait time.Duration) [][]byte {
	t.Helper()
	var got [][]byte
	buf := make([]byte, 2048)
	for {
		b.SetReadDeadline(time.Now().Add(wait))
		n, _, err := b.ReadFrom(buf)
		if err != nil {
			return got
		}
		got = append(got, append([]byte(nil), buf[:n]...))
	}
}

func TestPerLinkProfileOverride(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	// a->b loses everything; b->a is untouched.
	nw.SetLink(a.AddrPort(), b.AddrPort(), LinkProfile{Loss: 1})
	for i := 0; i < 5; i++ {
		if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteTo([]byte("y"), a.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvAll(t, b, 30*time.Millisecond); len(got) != 0 {
		t.Fatalf("lossy link delivered %d packets", len(got))
	}
	if got := recvAll(t, a, 30*time.Millisecond); len(got) != 5 {
		t.Fatalf("clean reverse link delivered %d of 5", len(got))
	}
	nw.ClearLink(a.AddrPort(), b.AddrPort())
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, b, 30*time.Millisecond); len(got) != 1 {
		t.Fatalf("cleared link delivered %d of 1", len(got))
	}
}

func TestDuplication(t *testing.T) {
	nw := New(1)
	nw.SetDefaultProfile(LinkProfile{DupProb: 1})
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	if _, err := a.WriteTo([]byte("twice"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, b, 30*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("DupProb=1 delivered %d copies, want 2", len(got))
	}
	if s := nw.Stats(); s.Duplicated != 1 || s.Delivered != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReorderHoldsPacketBack(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	// First packet is held back 50ms; then the link turns clean and the
	// second packet overtakes it.
	nw.SetLink(a.AddrPort(), b.AddrPort(), LinkProfile{ReorderProb: 1, ReorderDelay: 50 * time.Millisecond})
	if _, err := a.WriteTo([]byte("first"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	nw.SetLink(a.AddrPort(), b.AddrPort(), LinkProfile{})
	if _, err := a.WriteTo([]byte("second"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, b, 120*time.Millisecond)
	if len(got) != 2 || string(got[0]) != "second" || string(got[1]) != "first" {
		t.Fatalf("order = %q, want [second first]", got)
	}
	if s := nw.Stats(); s.Reordered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMTUTruncation(t *testing.T) {
	nw := New(1)
	nw.SetDefaultProfile(LinkProfile{MTU: 5})
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	if _, err := a.WriteTo([]byte("0123456789"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, b, 30*time.Millisecond)
	if len(got) != 1 || string(got[0]) != "01234" {
		t.Fatalf("got %q, want truncated to %q", got, "01234")
	}
	if s := nw.Stats(); s.Truncated != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestJitterDelaysDelivery(t *testing.T) {
	nw := New(1)
	nw.SetDefaultProfile(LinkProfile{Jitter: dist.Constant{V: 0.06}})
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("jittered packet arrived after %v, want >= ~60ms", elapsed)
	}
}

func TestBlockUnblockAsymmetric(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	nw.Block(a.AddrPort(), b.AddrPort())
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, b, 30*time.Millisecond); len(got) != 0 {
		t.Fatalf("blocked direction delivered %d packets", len(got))
	}
	// Reverse direction unaffected.
	if _, err := b.WriteTo([]byte("y"), a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, a, 30*time.Millisecond); len(got) != 1 {
		t.Fatalf("reverse direction delivered %d of 1", len(got))
	}
	if s := nw.Stats(); s.Blocked != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Healing restores delivery.
	nw.Unblock(a.AddrPort(), b.AddrPort())
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, b, 30*time.Millisecond); len(got) != 1 {
		t.Fatalf("healed direction delivered %d of 1", len(got))
	}
}

func TestIsolateHeal(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	nw.Isolate(b.AddrPort())
	a.WriteTo([]byte("in"), b.LocalAddr())
	b.WriteTo([]byte("out"), a.LocalAddr())
	if got := recvAll(t, b, 30*time.Millisecond); len(got) != 0 {
		t.Fatal("isolated endpoint received")
	}
	if got := recvAll(t, a, 30*time.Millisecond); len(got) != 0 {
		t.Fatal("isolated endpoint's packets escaped")
	}
	nw.Heal(b.AddrPort())
	a.WriteTo([]byte("in"), b.LocalAddr())
	b.WriteTo([]byte("out"), a.LocalAddr())
	if got := recvAll(t, b, 30*time.Millisecond); len(got) != 1 {
		t.Fatal("healed endpoint did not receive")
	}
	if got := recvAll(t, a, 30*time.Millisecond); len(got) != 1 {
		t.Fatal("healed endpoint's packets still blocked")
	}
}

func TestStatsAccountForEveryPacket(t *testing.T) {
	nw := New(3)
	nw.SetDefaultProfile(LinkProfile{Loss: 0.3, DupProb: 0.3})
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 300; i++ {
		if _, err := a.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	recvAll(t, b, 30*time.Millisecond)
	s := nw.Stats()
	if s.Sent != 300 {
		t.Fatalf("sent %d, want 300", s.Sent)
	}
	if s.Sent+s.Duplicated != s.Delivered+s.Dropped+s.Blocked+s.QueueDrop {
		t.Fatalf("accounting broken: %+v", s)
	}
	if s.Dropped == 0 || s.Duplicated == 0 {
		t.Fatalf("faults never fired: %+v", s)
	}
}

// TestDeterministicFaultPattern: identical seeds must produce the
// identical per-link fault decision sequence; a different seed must
// not.
func TestDeterministicFaultPattern(t *testing.T) {
	pattern := func(seed uint64) string {
		nw := New(seed)
		nw.SetDefaultProfile(LinkProfile{Loss: 0.5})
		a, b := nw.Listen(), nw.Listen()
		defer a.Close()
		defer b.Close()
		out := make([]byte, 0, 64)
		for i := 0; i < 64; i++ {
			if _, err := a.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			// Zero-latency links deliver inline, so presence is checkable
			// immediately.
			b.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			if _, _, err := b.ReadFrom(make([]byte, 8)); err == nil {
				out = append(out, '1')
			} else {
				out = append(out, '0')
			}
		}
		return string(out)
	}
	p1, p2 := pattern(77), pattern(77)
	if p1 != p2 {
		t.Fatalf("same seed diverged:\n%s\n%s", p1, p2)
	}
	if p3 := pattern(78); p3 == p1 {
		t.Fatal("different seeds produced identical fault pattern (suspicious)")
	}
}

// TestCrossLinkDeterminism: decisions on one link must not depend on
// traffic on another link.
func TestCrossLinkDeterminism(t *testing.T) {
	pattern := func(noise int) string {
		nw := New(13)
		nw.SetDefaultProfile(LinkProfile{Loss: 0.5})
		a, b := nw.Listen(), nw.Listen()
		c, d := nw.Listen(), nw.Listen()
		defer a.Close()
		defer b.Close()
		defer c.Close()
		defer d.Close()
		out := make([]byte, 0, 32)
		for i := 0; i < 32; i++ {
			for j := 0; j < noise; j++ {
				c.WriteTo([]byte("noise"), d.LocalAddr())
			}
			a.WriteTo([]byte{byte(i)}, b.LocalAddr())
			b.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			if _, _, err := b.ReadFrom(make([]byte, 8)); err == nil {
				out = append(out, '1')
			} else {
				out = append(out, '0')
			}
		}
		return string(out)
	}
	if p0, p3 := pattern(0), pattern(3); p0 != p3 {
		t.Fatalf("a->b pattern depends on c->d traffic:\n%s\n%s", p0, p3)
	}
}

// TestFaultScheduleIndependentOfSendOrder: a link's decision stream is
// derived when the link first draws, not when it first carries a packet,
// so the fate of every packet on two faulty links, and the network's
// counters, must be the same whichever link sends first and whether or
// not fault-free links carry traffic in between — and a fault-free link
// must never get a stream at all.
func TestFaultScheduleIndependentOfSendOrder(t *testing.T) {
	const packets = 48
	type fate struct{ inline, late int }
	type outcome struct {
		ab, cd [packets]fate
		stats  Stats
	}
	run := func(cdFirst, interleave bool, noise int) outcome {
		nw := New(29)
		a, b := nw.Listen(), nw.Listen()
		c, d := nw.Listen(), nw.Listen()
		e, f := nw.Listen(), nw.Listen()
		for _, conn := range []*Conn{a, b, c, d, e, f} {
			defer conn.Close()
		}
		// Zero latency, so a copy that is not held back lands inside
		// its WriteTo; a held one lands 30ms later, long after the
		// sender has looked.
		faulty := LinkProfile{Loss: 0.25, DupProb: 0.3, ReorderProb: 0.3, ReorderDelay: 30 * time.Millisecond}
		nw.SetLink(a.AddrPort(), b.AddrPort(), faulty)
		nw.SetLink(c.AddrPort(), d.AddrPort(), faulty)

		var out outcome
		buf := make([]byte, 8)
		// drain counts what is queued at dst: copies of packet i are
		// inline, copies of an earlier packet are held ones landing.
		drain := func(dst *Conn, fates *[packets]fate, i int) {
			for dst.queued() > 0 {
				if _, _, err := dst.ReadFromUDPAddrPort(buf); err != nil {
					t.Fatal(err)
				}
				if int(buf[0]) == i {
					fates[buf[0]].inline++
				} else {
					fates[buf[0]].late++
				}
			}
		}
		send := func(src, dst *Conn, fates *[packets]fate, i int) {
			for j := 0; j < noise; j++ {
				if _, err := e.WriteToUDPAddrPort([]byte("noise"), f.AddrPort()); err != nil {
					t.Fatal(err)
				}
				if _, _, err := f.ReadFromUDPAddrPort(buf); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := src.WriteToUDPAddrPort([]byte{byte(i)}, dst.AddrPort()); err != nil {
				t.Fatal(err)
			}
			drain(dst, fates, i)
		}
		first, second := func(i int) { send(a, b, &out.ab, i) }, func(i int) { send(c, d, &out.cd, i) }
		if cdFirst {
			first, second = second, first
		}
		if interleave {
			for i := 0; i < packets; i++ {
				first(i)
				second(i)
			}
		} else {
			for i := 0; i < packets; i++ {
				first(i)
			}
			for i := 0; i < packets; i++ {
				second(i)
			}
		}
		if !nw.WaitIdle(2 * time.Second) {
			t.Fatal("held copies never landed")
		}
		drain(b, &out.ab, -1)
		drain(d, &out.cd, -1)

		out.stats = nw.Stats()
		if s := out.stats; s.Sent+s.Duplicated != s.Delivered+s.Dropped+s.Blocked+s.QueueDrop {
			t.Fatalf("accounting broken: %+v", s)
		}
		// The fault-free traffic is the only difference allowed between
		// runs; take it out so the counters compare.
		out.stats.Sent -= int64(2 * packets * noise)
		out.stats.Delivered -= int64(2 * packets * noise)
		nw.mu.Lock()
		streams := len(nw.rngs)
		nw.mu.Unlock()
		if streams != 2 {
			t.Fatalf("%d link streams derived, want 2: only a→b and c→d can draw", streams)
		}
		return out
	}

	want := run(false, false, 0)
	if s := want.stats; s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 {
		t.Fatalf("faults never fired: %+v", s)
	}
	if want.ab == want.cd {
		t.Fatal("both links drew the same fates (suspicious)")
	}
	for _, v := range []struct {
		cdFirst, interleave bool
		noise               int
	}{
		{true, false, 0}, {false, true, 0}, {true, true, 0},
		{false, false, 2}, {true, true, 3},
	} {
		if got := run(v.cdFirst, v.interleave, v.noise); got != want {
			t.Errorf("cdFirst=%v interleave=%v noise=%d changed the schedule:\n got  %+v\n want %+v",
				v.cdFirst, v.interleave, v.noise, got, want)
		}
	}
}

// TestReadDeadlineTimerReuse: the endpoint's one deadline timer serves
// every read that waits under a deadline. It is re-armed only for a
// deadline earlier than the one it is pending for, so a later deadline
// leaves it as it is, and neither an expired wait nor one cut short by a
// packet may leak into the read after it.
func TestReadDeadlineTimerReuse(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	buf := make([]byte, 8)
	for round := 0; round < 3; round++ {
		// A wait that expires.
		b.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		if _, _, err := b.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("round %d: err = %v, want deadline exceeded", round, err)
		}
		// A wait with time to spare must last until its packet comes.
		b.SetReadDeadline(time.Now().Add(5 * time.Second))
		sent := make(chan error, 1)
		go func() {
			time.Sleep(20 * time.Millisecond)
			_, err := a.WriteTo([]byte("late"), b.LocalAddr())
			sent <- err
		}()
		if n, _, err := b.ReadFrom(buf); err != nil || string(buf[:n]) != "late" {
			t.Fatalf("round %d: read %q, %v; want the packet", round, buf[:n], err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		// And after a wait cut short, a short deadline still takes its
		// full time.
		start := time.Now()
		b.SetReadDeadline(start.Add(10 * time.Millisecond))
		if _, _, err := b.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("round %d: err = %v, want deadline exceeded", round, err)
		}
		if waited := time.Since(start); waited < 10*time.Millisecond {
			t.Fatalf("round %d: a 10ms deadline expired after %v", round, waited)
		}
	}
	b.SetReadDeadline(time.Now().Add(time.Second))
	armed := b.pendingAt()
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if got := b.pendingAt(); !got.Equal(armed) {
		t.Fatalf("a later deadline moved the pending timer from %v to %v", armed, got)
	}
}

// pendingAt is when c's deadline timer is pending for, or zero.
func (c *Conn) pendingAt() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timerAt
}

// TestReadDeadlineAppliesToPendingRead: a deadline set while a read
// waits applies to that read, as net.PacketConn asks, whether it is set
// to now, cuts a longer one short, or comes where there was none.
func TestReadDeadlineAppliesToPendingRead(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, set time.Duration // the deadline the read starts under (0: none) and the one set while it waits, from now
	}{
		{"now", 0, 0},
		{"10s cut to 30ms", 10 * time.Second, 30 * time.Millisecond},
		{"none to 30ms", 0, 30 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(1).Listen()
			defer c.Close()
			if tc.start > 0 {
				c.SetReadDeadline(time.Now().Add(tc.start))
			}
			type result struct {
				err error
				at  time.Time
			}
			done := make(chan result, 1)
			go func() {
				_, _, err := c.ReadFromUDPAddrPort(make([]byte, 8))
				done <- result{err, time.Now()}
			}()
			waitParked(t, 1)
			at := time.Now().Add(tc.set)
			c.SetReadDeadline(at)
			select {
			case r := <-done:
				if !errors.Is(r.err, os.ErrDeadlineExceeded) {
					t.Fatalf("err = %v, want deadline exceeded", r.err)
				}
				if late := r.at.Sub(at); late < 0 || late > time.Second {
					t.Fatalf("the read returned %v after its new deadline", late)
				}
			case <-time.After(2*time.Second + tc.set):
				t.Fatal("the waiting read outlived its new deadline by 2s")
			}
		})
	}
}

// TestReadDeadlineWakesEveryReader: four readers waiting on one endpoint
// under one deadline all return at it, though the timer leaves one token:
// each passes it on.
func TestReadDeadlineWakesEveryReader(t *testing.T) {
	c := New(1).Listen()
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	const readers = 4
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			_, _, err := c.ReadFromUDPAddrPort(make([]byte, 8))
			errs <- err
		}()
	}
	for left := readers; left > 0; left-- {
		select {
		case err := <-errs:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("a reader returned %v, want deadline exceeded", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d readers still wait 2s past their deadline", left, readers)
		}
	}
}

// TestCloseStopsDeadlineTimer: Close stops an armed deadline timer, and a
// fire that comes after Close neither signals wake, which Close closed
// (a send there would panic), nor arms the timer again. The loop races
// short deadlines against Close for the race detector.
func TestCloseStopsDeadlineTimer(t *testing.T) {
	nw := New(1)
	c := nw.Listen()
	c.SetReadDeadline(time.Now().Add(time.Hour))
	c.Close()
	c.mu.Lock()
	stopped := !c.timer.Stop()
	c.mu.Unlock()
	if !stopped {
		t.Fatal("Close left the deadline timer armed")
	}
	c.expire() // a fire that lost the race to Close
	if at := c.pendingAt(); !at.IsZero() {
		t.Fatalf("a fire after Close armed the timer for %v", at)
	}
	for i := 0; i < 100; i++ {
		c := nw.Listen()
		c.SetReadDeadline(time.Now().Add(time.Duration(i%4) * 50 * time.Microsecond))
		time.Sleep(time.Duration(i%3) * 50 * time.Microsecond)
		c.Close()
	}
	time.Sleep(2 * time.Millisecond) // the last fires land after Close
}
