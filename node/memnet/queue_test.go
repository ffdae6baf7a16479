package memnet

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// queued is how many packets c holds unread.
func (c *Conn) queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// FuzzConnQueue drives three endpoints, one operation per input byte,
// and checks every step against a model of a slice per endpoint: FIFO
// order and payloads (every fifth one too long for a pooled buffer), the
// cap of maxQueue packets, the Stats identity and net.ErrClosed after
// Close. A byte b is the operation b%9 with destination b/9%3 and source
// b/27%3 (see fuzzOp):
//
//	0, 1  send from the source
//	2     send over a link that duplicates every packet
//	3     read with no deadline (when it would not wait for ever)
//	4     read under an expired deadline
//	5     read under an armed deadline
//	6     close the destination
//	7     read parked before a send from the source wakes it
//	8     set a far-future deadline, and read under it if a packet is
//	      queued; the deadline and its armed timer stay for the ops after
//	      it, which must never fail a read they should not
func FuzzConnQueue(f *testing.F) {
	o := fuzzOp
	f.Add([]byte{
		o(0, 0, 0), o(0, 1, 0), o(0, 2, 0), o(3, 0, 0), o(3, 1, 0), o(2, 0, 0), o(5, 0, 0),
		o(4, 0, 0), o(5, 1, 0), o(6, 0, 0), o(3, 0, 0), o(5, 0, 0), o(0, 0, 0),
	})
	// Past the cap.
	f.Add(bytes.Repeat([]byte{o(0, 0, 0)}, maxQueue+4))
	// Duplicates at the cap, then close.
	f.Add(append(bytes.Repeat([]byte{o(2, 0, 0)}, maxQueue/2+1),
		o(3, 0, 0), o(5, 0, 0), o(2, 0, 0), o(6, 0, 0), o(3, 0, 0), o(5, 0, 0)))
	f.Add([]byte{o(7, 0, 0), o(7, 1, 0), o(7, 0, 0), o(0, 0, 0), o(0, 0, 0), o(7, 0, 0), o(3, 0, 0), o(3, 0, 0), o(7, 0, 0)})
	// A far deadline left armed under the other reads, then close.
	f.Add([]byte{
		o(8, 0, 0), o(0, 0, 1), o(8, 0, 0), o(5, 0, 0), o(0, 0, 1), o(8, 0, 0), o(7, 0, 1),
		o(8, 1, 0), o(4, 1, 0), o(0, 1, 0), o(3, 1, 0), o(8, 2, 0), o(6, 2, 0),
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		nw := New(1)
		var eps [3]*Conn
		dup := nw.Listen()
		defer dup.Close()
		for i := range eps {
			eps[i] = nw.Listen()
			defer eps[i].Close()
			nw.SetLink(dup.AddrPort(), eps[i].AddrPort(), LinkProfile{DupProb: 1})
		}
		type msg struct {
			from netip.AddrPort
			data []byte
		}
		var (
			queues [3][]msg
			closed [3]bool
			want   Stats
			seq    int
		)
		payload := func() []byte {
			seq++
			n := 1 + seq%40
			if seq%5 == 0 {
				n = pooledSize + seq%3
			}
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(seq + 7*i)
			}
			return p
		}
		// land models one copy arriving at open endpoint d.
		land := func(d int, m msg) {
			if len(queues[d]) == maxQueue {
				want.QueueDrop++
				return
			}
			want.Delivered++
			queues[d] = append(queues[d], m)
		}
		buf := make([]byte, 2*pooledSize)
		// read reads d once and checks the outcome against the model:
		// wantErr, or with none the packet at the head of d's queue.
		read := func(step, d int, wantErr error) {
			n, from, err := eps[d].ReadFromUDPAddrPort(buf)
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Fatalf("step %d: read %d: err %v, want %v", step, d, err, wantErr)
				}
				return
			}
			m := queues[d][0]
			queues[d] = queues[d][1:]
			if err != nil || from != m.from || !bytes.Equal(buf[:n], m.data) {
				t.Fatalf("step %d: read %d: %d bytes from %v, %v; want %d bytes from %v", step, d, n, from, err, len(m.data), m.from)
			}
		}
		for step, op := range ops {
			d, s := int(op/9%3), int(op/27%3)
			switch op % 9 {
			case 0, 1:
				p := payload()
				_, err := eps[s].WriteToUDPAddrPort(p, eps[d].AddrPort())
				switch {
				case closed[s]:
					if !errors.Is(err, net.ErrClosed) {
						t.Fatalf("step %d: send from closed %d: %v", step, s, err)
					}
				case err != nil:
					t.Fatalf("step %d: send: %v", step, err)
				case closed[d]:
					want.Sent++
					want.Blocked++
				default:
					want.Sent++
					land(d, msg{eps[s].AddrPort(), p})
				}
			case 2:
				p := payload()
				if _, err := dup.WriteToUDPAddrPort(p, eps[d].AddrPort()); err != nil {
					t.Fatalf("step %d: send: %v", step, err)
				}
				want.Sent++
				if closed[d] {
					want.Blocked++
					break
				}
				want.Duplicated++
				land(d, msg{dup.AddrPort(), p})
				land(d, msg{dup.AddrPort(), p})
			case 3:
				eps[d].SetReadDeadline(time.Time{})
				switch {
				case closed[d]:
					read(step, d, net.ErrClosed)
				case len(queues[d]) > 0:
					read(step, d, nil)
				}
			case 4:
				eps[d].SetReadDeadline(time.Now().Add(-time.Millisecond))
				read(step, d, os.ErrDeadlineExceeded)
			case 5:
				switch {
				case closed[d]:
					eps[d].SetReadDeadline(time.Now().Add(time.Minute))
					read(step, d, net.ErrClosed)
				case len(queues[d]) > 0:
					eps[d].SetReadDeadline(time.Now().Add(time.Minute))
					read(step, d, nil)
				default:
					eps[d].SetReadDeadline(time.Now().Add(50 * time.Microsecond))
					read(step, d, os.ErrDeadlineExceeded)
				}
			case 6:
				eps[d].Close()
				closed[d] = true
				queues[d] = nil
			case 7:
				if closed[d] || closed[s] || len(queues[d]) > 0 {
					continue
				}
				eps[d].SetReadDeadline(time.Time{})
				type result struct {
					data []byte
					from netip.AddrPort
					err  error
				}
				got := make(chan result, 1)
				go func() {
					b := make([]byte, 2*pooledSize)
					n, from, err := eps[d].ReadFromUDPAddrPort(b)
					got <- result{b[:n], from, err}
				}()
				p := payload()
				if _, err := eps[s].WriteToUDPAddrPort(p, eps[d].AddrPort()); err != nil {
					t.Fatalf("step %d: send: %v", step, err)
				}
				want.Sent++
				want.Delivered++
				select {
				case r := <-got:
					if r.err != nil || r.from != eps[s].AddrPort() || !bytes.Equal(r.data, p) {
						t.Fatalf("step %d: parked read %d: %d bytes from %v, %v", step, d, len(r.data), r.from, r.err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("step %d: a send never woke the reader parked on %d", step, d)
				}
			case 8:
				eps[d].SetReadDeadline(time.Now().Add(time.Hour))
				switch {
				case closed[d]:
					read(step, d, net.ErrClosed)
				case len(queues[d]) > 0:
					read(step, d, nil)
				}
			}
			if got := nw.Stats(); got != want {
				t.Fatalf("step %d (op %d): stats %+v, want %+v", step, op, got, want)
			}
			for i, c := range eps {
				if got := c.queued(); got != len(queues[i]) {
					t.Fatalf("step %d: endpoint %d holds %d packets, want %d", step, i, got, len(queues[i]))
				}
			}
		}
		if s := nw.Stats(); s.Sent+s.Duplicated != s.Delivered+s.Dropped+s.Blocked+s.QueueDrop {
			t.Fatalf("accounting broken: %+v", s)
		}
	})
}

// fuzzOp is the FuzzConnQueue input byte for operation op with
// destination d and source s.
func fuzzOp(op, d, s int) byte { return byte(op + 9*d + 27*s) }

// TestCloseWakesEveryReader: Close wakes a reader parked with no
// deadline and one parked under a deadline, and both return
// net.ErrClosed.
func TestCloseWakesEveryReader(t *testing.T) {
	nw := New(1)
	c := nw.Listen()
	errs := make(chan error, 2)
	read := func() {
		_, _, err := c.ReadFromUDPAddrPort(make([]byte, 8))
		errs <- err
	}
	go read() // parks with no deadline
	waitParked(t, 1)
	c.SetReadDeadline(time.Now().Add(time.Hour))
	go read() // parks under a deadline, its timer armed
	waitParked(t, 2)
	c.Close()
	for left := 2; left > 0; left-- {
		select {
		case err := <-errs:
			if !errors.Is(err, net.ErrClosed) {
				t.Fatalf("a parked reader returned %v, want net.ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of 2 parked readers still wait after Close", left)
		}
	}
}

// TestBurstWakesEveryParkedReader: two packets sent back to back to an
// endpoint with two parked readers reach one reader each, though wake
// holds one token.
func TestBurstWakesEveryParkedReader(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	defer b.Close()
	got := make(chan byte, 2)
	for i := 0; i < 2; i++ {
		go func() {
			buf := make([]byte, 8)
			if n, _, err := b.ReadFromUDPAddrPort(buf); err == nil && n == 1 {
				got <- buf[0]
			}
		}()
	}
	waitParked(t, 2)
	for i := byte(1); i <= 2; i++ {
		if _, err := a.WriteToUDPAddrPort([]byte{i}, b.AddrPort()); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	for left := 2; left > 0; left-- {
		select {
		case v := <-got:
			sum += int(v)
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of 2 parked readers never got a packet", left)
		}
	}
	if sum != 3 {
		t.Fatalf("the readers got packets summing to %d, want 1+2", sum)
	}
}

// TestPooledPayloadsIntact: a reader copies each packet out of its
// pooled buffer before the buffer goes back to the pool, where the
// sender, on another goroutine, takes it for a later copy. Under -race a
// buffer released before the copy shows as a race; every run checks the
// payloads.
func TestPooledPayloadsIntact(t *testing.T) {
	nw := New(1)
	a, b := nw.Listen(), nw.Listen()
	defer a.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 128)
		for {
			n, _, err := b.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed, once everything sent is read
			}
			for _, v := range buf[:n] {
				if n != 64 || v != buf[0] {
					t.Errorf("payload corrupted: %v", buf[:n])
					return
				}
			}
		}
	}()
	p := make([]byte, 64)
	for i := 0; i < 4000; i++ {
		for j := range p {
			p[j] = byte(i)
		}
		if _, err := a.WriteToUDPAddrPort(p, b.AddrPort()); err != nil {
			t.Fatal(err)
		}
	}
	for b.queued() > 0 {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never woke the reader")
	}
}

// waitParked waits until want goroutines are blocked in a read, parked
// on the endpoint's wake channel.
func waitParked(t *testing.T, want int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "memnet.(*Conn).ReadFromUDPAddrPort") {
				parked++
			}
		}
		if parked >= want {
			return
		}
	}
	t.Fatalf("fewer than %d readers parked", want)
}
