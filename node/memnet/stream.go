package memnet

// Reliable in-memory byte streams over the same switchboard as the
// packet network, for testing connection-oriented protocols (the sweep
// coordinator/worker transport) without real sockets.
//
// A stream is a connected net.Conn pair with bounded buffering and
// full deadline support. Unlike the packet side, streams model only
// connectivity faults and latency: Block/Isolate on the underlying
// link makes writes fail with ErrLinkBlocked (a reliable transport
// would mask loss and jitter by retransmission, so simulating them
// here would only re-test TCP), and a link's Latency delays each
// write by the one-way delay — which is how a "slow control link"
// scenario drives a deadline-based client into its timeout path.
// That is exactly what partition tests need — a blocked link kills
// the connection at the next write, the way a real TCP connection
// dies on a partitioned path.

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// ErrLinkBlocked reports a stream operation over a blocked or isolated
// link.
var ErrLinkBlocked = errors.New("memnet: link blocked")

// streamChunks bounds each direction's in-flight chunk queue; a writer
// blocks (or times out against its write deadline) when the reader
// falls this far behind.
const streamChunks = 64

// ListenStream creates a stream listener with a fresh address on the
// network.
func (n *Network) ListenStream() *StreamListener {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := netip.AddrPortFrom(netip.MustParseAddr("10.99.0.1"), n.nextPort)
	n.nextPort++
	l := &StreamListener{
		net:     n,
		addr:    addr,
		backlog: make(chan *StreamConn, 16),
		done:    make(chan struct{}),
	}
	if n.streams == nil {
		n.streams = make(map[netip.AddrPort]*StreamListener)
	}
	n.streams[addr] = l
	return l
}

// DialStream connects a new endpoint to the stream listener at addr.
// The dial fails if no listener is registered there, the listener's
// backlog is full, or the link is blocked or isolated in either
// direction.
func (n *Network) DialStream(addr netip.AddrPort) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.streams[addr]
	var local netip.AddrPort
	if ok {
		local = netip.AddrPortFrom(netip.MustParseAddr("10.99.0.1"), n.nextPort)
		n.nextPort++
	}
	n.mu.Unlock()
	if !ok {
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: errors.New("connection refused")}
	}
	if err := n.streamLinkOK(local, addr); err != nil {
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: err}
	}
	client, server := n.streamPair(local, addr)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: errors.New("connection refused")}
	default:
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: errors.New("connection refused: backlog full")}
	}
}

// streamLinkOK reports whether data may currently flow local→remote.
func (n *Network) streamLinkOK(from, to netip.AddrPort) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isolated[from] || n.isolated[to] || n.profileLocked(from, to).Blocked {
		return ErrLinkBlocked
	}
	return nil
}

// streamLatency is the link's configured one-way delay local→remote.
func (n *Network) streamLatency(from, to netip.AddrPort) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.profileLocked(from, to).Latency
}

// streamPair builds the two connected halves of a stream.
func (n *Network) streamPair(client, server netip.AddrPort) (*StreamConn, *StreamConn) {
	c2s := newHalfPipe()
	s2c := newHalfPipe()
	c := &StreamConn{net: n, local: client, remote: server, in: s2c, out: c2s, closed: make(chan struct{})}
	s := &StreamConn{net: n, local: server, remote: client, in: c2s, out: s2c, closed: make(chan struct{})}
	c.peerClosed, s.peerClosed = s.closed, c.closed
	return c, s
}

// StreamListener accepts in-memory stream connections; it implements
// net.Listener.
type StreamListener struct {
	net     *Network
	addr    netip.AddrPort
	backlog chan *StreamConn

	closeOnce sync.Once
	done      chan struct{}
}

var _ net.Listener = (*StreamListener)(nil)

// Accept implements net.Listener.
func (l *StreamListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener. Established connections stay up.
func (l *StreamListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.streams, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *StreamListener) Addr() net.Addr { return net.TCPAddrFromAddrPort(l.addr) }

// AddrPort returns the listener's address in netip form.
func (l *StreamListener) AddrPort() netip.AddrPort { return l.addr }

// halfPipe carries one direction of a stream: a bounded chunk queue
// plus the reader's remainder of a partially consumed chunk.
type halfPipe struct {
	ch   chan []byte
	rest []byte // owned by the reading side
}

func newHalfPipe() *halfPipe {
	return &halfPipe{ch: make(chan []byte, streamChunks)}
}

// StreamConn is one end of an in-memory stream; it implements
// net.Conn.
type StreamConn struct {
	net           *Network
	local, remote netip.AddrPort
	in, out       *halfPipe

	closeOnce  sync.Once
	closed     chan struct{} // this end closed
	peerClosed chan struct{} // other end closed

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
}

var _ net.Conn = (*StreamConn)(nil)

// deadlineTimer returns a channel that fires at the given deadline. A
// nil channel never fires (no deadline).
func deadlineTimer(at time.Time) (<-chan time.Time, error) {
	if at.IsZero() {
		return nil, nil
	}
	d := time.Until(at)
	if d <= 0 {
		return nil, os.ErrDeadlineExceeded
	}
	return time.After(d), nil
}

// Read implements net.Conn. After the peer closes, buffered data is
// still drained before io.EOF.
func (c *StreamConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	timeout, err := deadlineTimer(c.readDeadline)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if len(c.in.rest) > 0 {
		n := copy(p, c.in.rest)
		c.in.rest = c.in.rest[n:]
		return n, nil
	}
	// Prefer buffered data over the peer-closed signal so a close
	// racing a final write still delivers the write first.
	var chunk []byte
	select {
	case chunk = <-c.in.ch:
	default:
		select {
		case chunk = <-c.in.ch:
		case <-c.closed:
			return 0, net.ErrClosed
		case <-c.peerClosed:
			select {
			case chunk = <-c.in.ch:
			default:
				return 0, io.EOF
			}
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		}
	}
	n := copy(p, chunk)
	c.in.rest = chunk[n:]
	return n, nil
}

// Write implements net.Conn. Writes over a blocked or isolated link
// fail with ErrLinkBlocked — a partition kills the connection at the
// next write, like a reset on a real network. A link with Latency
// configured delays each write by the one-way delay (still bounded by
// the write deadline), modeling a slow path.
func (c *StreamConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	select {
	case <-c.peerClosed:
		return 0, &net.OpError{Op: "write", Net: "memnet", Err: errors.New("connection reset by peer")}
	default:
	}
	if err := c.net.streamLinkOK(c.local, c.remote); err != nil {
		return 0, &net.OpError{Op: "write", Net: "memnet", Err: err}
	}
	c.mu.Lock()
	timeout, err := deadlineTimer(c.writeDeadline)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if d := c.net.streamLatency(c.local, c.remote); d > 0 {
		select {
		case <-time.After(d):
		case <-c.closed:
			return 0, net.ErrClosed
		case <-c.peerClosed:
			return 0, &net.OpError{Op: "write", Net: "memnet", Err: errors.New("connection reset by peer")}
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		}
		// The link may have been blocked while the write was in flight.
		if err := c.net.streamLinkOK(c.local, c.remote); err != nil {
			return 0, &net.OpError{Op: "write", Net: "memnet", Err: err}
		}
	}
	chunk := append([]byte(nil), p...)
	select {
	case c.out.ch <- chunk:
		return len(p), nil
	case <-c.closed:
		return 0, net.ErrClosed
	case <-c.peerClosed:
		return 0, &net.OpError{Op: "write", Net: "memnet", Err: errors.New("connection reset by peer")}
	case <-timeout:
		return 0, os.ErrDeadlineExceeded
	}
}

// Close implements net.Conn. The peer's reads drain buffered data and
// then see io.EOF; its writes fail.
func (c *StreamConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// LocalAddr implements net.Conn.
func (c *StreamConn) LocalAddr() net.Addr { return net.TCPAddrFromAddrPort(c.local) }

// RemoteAddr implements net.Conn.
func (c *StreamConn) RemoteAddr() net.Addr { return net.TCPAddrFromAddrPort(c.remote) }

// SetDeadline implements net.Conn.
func (c *StreamConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline, c.writeDeadline = t, t
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *StreamConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *StreamConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeDeadline = t
	return nil
}
