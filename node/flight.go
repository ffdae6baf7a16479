package node

import (
	"context"
	"math"
	"net/netip"
	"slices"
	"time"

	"repro/internal/wire"
)

// flight is one request in the air: its target, its attempt count and
// backoff, when its latest transmission left, and one reusable timer
// that is the reply deadline while a transmission is out and the pause
// before the next one after a deadline passes.
//
// The timer is armed once and left to fire: a reply does not stop it,
// and a new deadline re-arms it only when it is not armed or armed past
// that deadline. A fire before due re-arms it for the rest. So a probe
// sent after a quick reply finds the timer armed early enough and makes
// no timer call; the early fire re-arms it once for the probes after.
//
// A flight in n.pending is held by no goroutine. Whichever goroutine
// takes it out hands it to its owner's finish, exactly once: the serve
// loop with its reply, the timer with its last deadline, the waiting
// caller with an abort (ctx done or Close). The holder may then reuse
// it, as a query does for its next probe. n.pendingMu guards the fields
// from id to retries while the flight is pending; req and target are
// written only by the holder, before launch.
type flight struct {
	n      *Node
	owner  flightOwner
	req    wire.Message
	target netip.AddrPort

	id      uint64
	attempt int // the transmission out, or next out after a pause
	backoff time.Duration
	sentAt  time.Time
	// due is when the transmission out times out, or the pause ends: a
	// fire before it finds the timer armed early and re-arms it.
	due time.Time
	// armed is when the timer is set to fire, zero once it has fired
	// and its expire has run.
	armed   time.Time
	pausing bool
	// aborted stops the flight at its next launch: set by abort while
	// the holder steps, it makes a query stop instead of probing on. (The
	// holder checks ctx and Close before it picks a probe; an abort that
	// lands after that check would otherwise wait out the new probe.)
	aborted bool
	// retries counts transmissions beyond each request's first, across
	// every request the flight carried since its owner zeroed it.
	retries int
	timer   *time.Timer
}

// flightOwner hears how a flight ended: the reply (decoded into the
// serve loop's decoder, so valid only until finish returns) and its
// arrival time with txReply, or nil with txTimeout or txAborted.
type flightOwner interface {
	finish(reply wire.Message, outcome txOutcome, at time.Time)
}

// txOutcome classifies how a flight ended.
type txOutcome int

const (
	// txReply: a correlated reply arrived.
	txReply txOutcome = iota
	// txTimeout: every attempt timed out or failed to send; the target
	// is presumed dead.
	txTimeout
	// txAborted: the context was cancelled or the node closed.
	txAborted
)

// launch puts the flight's request, just set by its holder, in the air,
// with MaxProbeAttempts transmissions and exponential backoff between
// them. It reports ended, with the outcome, when the flight ended before
// it was left in the air — aborted, or every attempt failed to send —
// and otherwise the owner's finish will hear from it.
func (n *Node) launch(f *flight) (out txOutcome, ended bool) {
	n.pendingMu.Lock()
	if f.aborted {
		n.pendingMu.Unlock()
		return txAborted, true
	}
	f.id = f.req.ID()
	f.attempt, f.backoff = 1, n.cfg.RetryBackoff
	n.pending[f.id] = f
	return n.transmitLocked(f, n.attemptTimeoutLocked())
}

// transmitLocked sends the pending flight's request once and arms its
// reply deadline, timeout from now; callers hold n.pendingMu, which it
// releases before the write. The request is encoded under the lock, into
// a buffer of its own, because once the flight is pending another
// goroutine may take it and reuse it. A failed send counts as a deadline
// passed at once.
func (n *Node) transmitLocked(f *flight, timeout time.Duration) (txOutcome, bool) {
	f.pausing = false
	f.sentAt = time.Now()
	f.due = f.sentAt.Add(timeout)
	f.armLocked(timeout)
	buf := sendBufs.Get().(*[]byte)
	defer sendBufs.Put(buf)
	pkt, err := wire.AppendEncode((*buf)[:0], f.req)
	id, attempt, typ, to := f.id, f.attempt, f.req.Type(), f.target
	n.pendingMu.Unlock()

	if err == nil {
		err = n.write(pkt, to)
	}
	if err == nil {
		return 0, false
	}
	n.logf("send %s to %v: %v", typ, to, err)
	n.pendingMu.Lock()
	if n.pending[id] != f || f.attempt != attempt || f.pausing {
		// Taken meanwhile by a late reply to an earlier attempt or by
		// an abort, or its deadline already passed.
		n.pendingMu.Unlock()
		return 0, false
	}
	return n.lapseLocked(f)
}

// lapseLocked handles a pending flight whose latest transmission went
// unanswered: with attempts left it counts a retry and pauses for the
// backoff, and otherwise the flight ends timed out. The backoff doubles
// per retry up to the larger of 1s and RetryBackoff. Callers hold
// n.pendingMu, which it releases.
func (n *Node) lapseLocked(f *flight) (txOutcome, bool) {
	if f.attempt >= n.cfg.MaxProbeAttempts {
		delete(n.pending, f.id)
		n.pendingMu.Unlock()
		return txTimeout, true
	}
	f.attempt++
	f.retries++
	n.met.Retries.Inc()
	pause := f.backoff
	f.backoff = min(2*f.backoff, max(time.Second, n.cfg.RetryBackoff))
	f.pausing = true
	f.due = time.Now().Add(pause)
	f.armLocked(pause)
	n.pendingMu.Unlock()
	return 0, false
}

// armLocked makes the timer fire no later than f.due, which is d from
// now: it arms the timer unless it is armed already to fire by then.
// Callers hold n.pendingMu.
func (f *flight) armLocked(d time.Duration) {
	switch {
	case f.timer == nil:
		f.timer = time.AfterFunc(d, f.expire)
	case f.armed.IsZero() || f.armed.After(f.due):
		f.timer.Reset(d)
	default:
		return
	}
	f.armed = f.due
}

// expire is the flight's timer: a reply deadline passing, or a backoff
// pause ending in the next transmission. A fire that finds the flight
// taken is a leftover and does nothing: a deadline that fired while its
// reply was being taken must not time out the next request the same
// flight carries. A fire before the due time of the request in the air
// re-arms the timer for the rest of it.
func (f *flight) expire() {
	n := f.n
	n.pendingMu.Lock()
	f.armed = time.Time{}
	if n.pending[f.id] != f {
		n.pendingMu.Unlock()
		return
	}
	if now := time.Now(); now.Before(f.due) {
		f.armLocked(f.due.Sub(now))
		n.pendingMu.Unlock()
		return
	}
	var out txOutcome
	var ended bool
	if f.pausing {
		out, ended = n.transmitLocked(f, n.attemptTimeoutLocked())
	} else {
		out, ended = n.lapseLocked(f)
	}
	if ended {
		f.owner.finish(nil, out, time.Time{})
	}
}

// abort ends the flight for a caller that stops waiting. If the flight
// is pending it is taken and finished aborted here; otherwise its holder
// is stepping it and will find it aborted at its next launch.
func (n *Node) abort(f *flight) {
	n.pendingMu.Lock()
	f.aborted = true
	held := n.pending[f.id] == f
	if held {
		delete(n.pending, f.id)
	}
	n.pendingMu.Unlock()
	if held {
		f.owner.finish(nil, txAborted, time.Time{})
	}
}

// wait blocks until done, which the flight's owner signals when it has
// finished with it, aborting the flight first if ctx or the node is done.
func (n *Node) wait(ctx context.Context, f *flight, done <-chan struct{}) {
	select {
	case <-done:
		return
	case <-ctx.Done():
	case <-n.closing:
	}
	n.abort(f)
	<-done
}

// deliver hands a reply that arrived at time at to the flight waiting
// for it, on the serve loop's goroutine. A copy no flight takes is
// counted, so that chaos tests can account for every packet: as a
// duplicate if a flight took its ID recently, as late otherwise (its
// probe timed out or was aborted, or it was never solicited).
func (n *Node) deliver(msg wire.Message, at time.Time) {
	id := msg.ID()
	n.pendingMu.Lock()
	f, ok := n.pending[id]
	if !ok {
		if n.answered.has(id) {
			n.met.DupReplies.Inc()
		} else {
			n.met.LateReplies.Inc()
		}
		n.pendingMu.Unlock()
		return
	}
	delete(n.pending, id)
	n.answered.add(id)
	// Karn's rule: a reply after a retransmission is ambiguous about
	// which transmission it answers, so only first ones are sampled.
	sampled := f.attempt == 1
	rtt := at.Sub(f.sentAt)
	if sampled {
		n.observeRTTLocked(rtt.Seconds())
	}
	n.pendingMu.Unlock()
	if sampled {
		n.met.RTT.Observe(rtt.Seconds())
	}
	f.owner.finish(msg, txReply, at)
}

// idRing holds the last few message IDs a flight took a reply for.
type idRing struct {
	ids  [64]uint64
	next int
}

func (r *idRing) add(id uint64) {
	r.ids[r.next] = id
	r.next = (r.next + 1) % len(r.ids)
}

func (r *idRing) has(id uint64) bool { return id != 0 && slices.Contains(r.ids[:], id) }

// attemptTimeoutLocked returns the per-transmission reply deadline: the
// configured ProbeTimeout, or with AdaptiveTimeout an RTO from the RTT
// EWMA (srtt + 4*rttvar) clamped to [ProbeTimeout/8, 2*ProbeTimeout];
// callers hold n.pendingMu.
func (n *Node) attemptTimeoutLocked() time.Duration {
	if !n.cfg.AdaptiveTimeout || n.srtt == 0 {
		return n.cfg.ProbeTimeout
	}
	rto := time.Duration((n.srtt + 4*n.rttvar) * float64(time.Second))
	if lo := n.cfg.ProbeTimeout / 8; rto < lo {
		return lo
	}
	if hi := 2 * n.cfg.ProbeTimeout; rto > hi {
		return hi
	}
	return rto
}

// observeRTTLocked feeds one unambiguous RTT sample, in seconds, into
// the Jacobson/Karels estimator behind adaptive timeouts; callers hold
// n.pendingMu.
func (n *Node) observeRTTLocked(s float64) {
	if n.srtt == 0 {
		n.srtt, n.rttvar = s, s/2
		return
	}
	n.rttvar = 0.75*n.rttvar + 0.25*math.Abs(n.srtt-s)
	n.srtt = 0.875*n.srtt + 0.125*s
}
