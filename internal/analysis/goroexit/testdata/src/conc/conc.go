// Package conc poses as repro/node to exercise the goroexit analyzer:
// every spawned goroutine needs a bounded exit path, and blocking conn
// reads need a deadline or an AfterFunc closer.
package conc

import (
	"context"
	"net"
	"net/netip"
	"time"
)

type worker struct {
	stop chan struct{}
}

func step() {}

// spin loops forever with no receive, return, or break.
func spin() {
	for {
		step()
	}
}

// loop is spin as a method: judged by its summary, not the go site.
func (w *worker) loop() {
	for {
		step()
	}
}

// Spawn exercises the unbounded-loop rule.
func Spawn(w *worker) {
	go func() { // want `loops forever with no bounded exit path`
		for {
			step()
		}
	}()

	// A select on the shutdown channel is a bounded exit path.
	go func() {
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			step()
		}
	}()

	// Extracting the loop into a method does not evade the check.
	go w.loop() // want `loops forever with no bounded exit path`

	//lint:goroexit-ok this worker is torn down with the whole process
	go spin()
}

// Pool spawns straight-line bounded goroutines: no loop, no finding.
func Pool(items []int, done func()) {
	for range items {
		go func() {
			step()
			done()
		}()
	}
}

// readForever blocks on conn reads with no deadline.
func readForever(c net.Conn) {
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// readWithDeadline bounds every read, so shutdown cannot hang on it.
func readWithDeadline(c net.Conn) {
	buf := make([]byte, 64)
	for {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// Serve exercises the conn-read rule.
func Serve(ctx context.Context, c net.Conn) {
	go readForever(c) // want `blocks on conn reads with no deadline`

	go readWithDeadline(c)

	// An AfterFunc closer unblocks the read when ctx ends.
	go func() {
		stop := context.AfterFunc(ctx, func() { c.Close() })
		defer stop()
		buf := make([]byte, 64)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
}

// transport is the live node's datagram socket: peers in netip form and
// no deadline method, so only closing it can end a read.
type transport interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	LocalAddr() net.Addr
	Close() error
}

// readDatagramsForever blocks on the transport's read.
func readDatagramsForever(c transport) {
	buf := make([]byte, 64)
	for {
		if _, _, err := c.ReadFromUDPAddrPort(buf); err != nil {
			return
		}
	}
}

// ServeDatagrams: the netip-form read is a conn read like any other.
func ServeDatagrams(c transport) {
	go readDatagramsForever(c) // want `blocks on conn reads with no deadline`
}

// Dynamic spawns through a function value: outside the loaded program,
// so no judgment is possible and none is made.
func Dynamic(fn func()) {
	go fn()
}
