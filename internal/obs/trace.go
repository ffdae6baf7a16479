package obs

import (
	"io"
	"strconv"
	"sync"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvQueryIssued marks a query's start at its originating peer.
	EvQueryIssued EventKind = iota + 1
	// EvProbeRound marks the start of one probe round of a query;
	// Round is the 1-based round index and Probes the query's probe
	// count entering the round.
	EvProbeRound
	// EvProbe is one probe: Target is the probed peer, Outcome is
	// good/dead/refused, Results the results this probe returned.
	EvProbe
	// EvPong is a pong accepted by Peer from Target; Entries counts the
	// pong's entries.
	EvPong
	// EvQueryDone ends a query: Outcome is satisfied, exhausted, or
	// aborted; Probes and Results are the query totals.
	EvQueryDone
	// EvPeerBirth and EvPeerDeath are churn events for Peer.
	EvPeerBirth
	EvPeerDeath
	// EvPing is one maintenance ping from Peer to Target with Outcome
	// good or dead.
	EvPing
)

var eventNames = [...]string{
	EvQueryIssued: "query_issued",
	EvProbeRound:  "probe_round",
	EvProbe:       "probe",
	EvPong:        "pong",
	EvQueryDone:   "query_done",
	EvPeerBirth:   "peer_birth",
	EvPeerDeath:   "peer_death",
	EvPing:        "ping",
}

// String returns the event name used in the JSONL schema.
func (k EventKind) String() string {
	if int(k) < len(eventNames) && eventNames[k] != "" {
		return eventNames[k]
	}
	return "unknown"
}

// Outcome is the result classification carried by probe, ping, and
// query-done events.
type Outcome uint8

const (
	OutcomeNone Outcome = iota
	// OutcomeGood: the target answered (probe/ping).
	OutcomeGood
	// OutcomeDead: the target was dead or timed out.
	OutcomeDead
	// OutcomeRefused: the target refused the probe (overloaded).
	OutcomeRefused
	// OutcomeSatisfied: the query reached its desired results.
	OutcomeSatisfied
	// OutcomeExhausted: the query ran out of candidates (or hit its
	// probe cap) unsatisfied.
	OutcomeExhausted
	// OutcomeAborted: the querying peer died, or the run ended or was
	// interrupted with the query in flight.
	OutcomeAborted
)

var outcomeNames = [...]string{
	OutcomeNone:      "",
	OutcomeGood:      "good",
	OutcomeDead:      "dead",
	OutcomeRefused:   "refused",
	OutcomeSatisfied: "satisfied",
	OutcomeExhausted: "exhausted",
	OutcomeAborted:   "aborted",
}

// String returns the outcome name used in the JSONL schema.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Event is one engine lifecycle or query trace event. It is a plain
// value: emitting one costs no allocation, and fields irrelevant to the
// Kind are zero.
type Event struct {
	// Kind classifies the event; see the EventKind constants.
	Kind EventKind
	// Time is seconds on the emitter's clock: virtual simulation time
	// for engine events, seconds since node start for live-node events.
	Time float64
	// Query identifies the query (1-based per run; 0 for non-query
	// events).
	Query uint64
	// Peer is the subject peer (query origin, pinger, or the peer born
	// or dying).
	Peer uint64
	// Target is the secondary peer: probe or ping target, pong supplier.
	Target uint64
	// Outcome classifies probe/ping/query-done events.
	Outcome Outcome
	// Round is the 1-based probe round (EvProbeRound).
	Round int
	// Probes is the query's cumulative probe count.
	Probes int
	// Results is the results returned (EvProbe) or accumulated
	// (EvQueryDone).
	Results int
	// Entries is the pong entry count (EvPong).
	Entries int
}

// Observer receives engine lifecycle and trace events. Implementations
// attached to parallel sweeps must be safe for concurrent use;
// TraceWriter is. Observe must not retain references into the event
// (it is a value, so this is automatic) and should return quickly —
// it runs inline on the simulation loop.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// QueryEventMask selects the per-query trace kinds (issued, rounds,
// probes, pongs, done) — the -trace-queries dump.
const QueryEventMask = 1<<EvQueryIssued | 1<<EvProbeRound | 1<<EvProbe |
	1<<EvPong | 1<<EvQueryDone

// AllEventMask selects every event kind, including churn and pings.
const AllEventMask = QueryEventMask | 1<<EvPeerBirth | 1<<EvPeerDeath | 1<<EvPing

// TraceWriter is an Observer that appends events to w as JSON Lines,
// one object per event (see README.md, "Observability", for the
// schema). It is safe for concurrent use: lines are built under a
// mutex into a reusable buffer and written whole, so events from
// parallel runs never interleave mid-line.
type TraceWriter struct {
	mu   sync.Mutex
	w    io.Writer
	buf  []byte
	mask uint32
	err  error
}

// NewTraceWriter returns a TraceWriter emitting every event kind.
// Restrict it with Mask.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, mask: AllEventMask}
}

// Mask limits the writer to kinds whose bit (1 << kind) is set in mask
// (e.g. QueryEventMask) and returns the writer.
func (t *TraceWriter) Mask(mask uint32) *TraceWriter {
	t.mu.Lock()
	t.mask = mask
	t.mu.Unlock()
	return t
}

// Err returns the first write error, if any. Writes stop after an
// error.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Observe writes ev as one JSONL line.
func (t *TraceWriter) Observe(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || t.mask&(1<<ev.Kind) == 0 {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"ev":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","t":`...)
	b = strconv.AppendFloat(b, ev.Time, 'f', 3, 64)
	if ev.Query != 0 {
		b = append(b, `,"query":`...)
		b = strconv.AppendUint(b, ev.Query, 10)
	}
	b = append(b, `,"peer":`...)
	b = strconv.AppendUint(b, ev.Peer, 10)
	if ev.Target != 0 {
		b = append(b, `,"target":`...)
		b = strconv.AppendUint(b, ev.Target, 10)
	}
	if ev.Outcome != OutcomeNone {
		b = append(b, `,"outcome":"`...)
		b = append(b, ev.Outcome.String()...)
		b = append(b, '"')
	}
	if ev.Kind == EvProbeRound {
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(ev.Round), 10)
	}
	if ev.Kind == EvProbeRound || ev.Kind == EvQueryDone {
		b = append(b, `,"probes":`...)
		b = strconv.AppendInt(b, int64(ev.Probes), 10)
	}
	if ev.Kind == EvProbe || ev.Kind == EvQueryDone {
		b = append(b, `,"results":`...)
		b = strconv.AppendInt(b, int64(ev.Results), 10)
	}
	if ev.Kind == EvPong {
		b = append(b, `,"entries":`...)
		b = strconv.AppendInt(b, int64(ev.Entries), 10)
	}
	b = append(b, "}\n"...)
	t.buf = b
	_, t.err = t.w.Write(b)
}
