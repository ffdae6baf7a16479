package node

import (
	"net/netip"
	"time"
)

// AdmissionMode selects how the node decides which inbound probes to
// serve when demand approaches its capacity.
type AdmissionMode int

const (
	// AdmissionFlat is the paper's capacity model: a flat
	// MaxProbesPerSecond window over queries, refusing everything past
	// the limit with Busy regardless of who is asking. Pings are never
	// refused. This is the default.
	AdmissionFlat AdmissionMode = iota
	// AdmissionFair sheds load by requester: per-requester demand is
	// tracked in an SFB-style constant-memory sketch and, under
	// pressure, requesters over their fair share are refused first
	// while in-capacity requesters keep being served. Degradation is
	// tiered: pings are shed before queries, and cache writes are
	// skipped while the node is under pressure.
	AdmissionFair
)

// Valid reports whether the mode is one of the defined admission modes.
func (m AdmissionMode) Valid() bool {
	return m == AdmissionFlat || m == AdmissionFair
}

// String names the admission mode.
func (m AdmissionMode) String() string {
	switch m {
	case AdmissionFlat:
		return "flat"
	case AdmissionFair:
		return "fair"
	default:
		return "invalid"
	}
}

// probeKind distinguishes the two inbound probe classes for tiered
// shedding.
type probeKind int

const (
	probePing probeKind = iota
	probeQuery
)

// shedTier records which degradation tier refused a probe, so the obs
// counters can account for every shed by cause.
type shedTier int

const (
	shedNone shedTier = iota
	// shedFlat: the flat window refused it (counted only in the
	// pre-existing ProbesRefused counter, preserving default behavior).
	shedFlat
	// shedPing: tier 1, a ping shed under pressure.
	shedPing
	// shedQuery: tier 2, a query shed for exceeding fair share or the
	// hard capacity.
	shedQuery
	// shedDrain: refused because the node is draining for shutdown.
	shedDrain
)

// admitVerdict is one admission decision.
type admitVerdict struct {
	ok bool
	// tier is the shed cause when !ok.
	tier shedTier
	// skipCacheWrite, when ok, asks the serve path to skip link-cache
	// writes for this probe (tier-1 degradation under pressure).
	skipCacheWrite bool
}

// admitter is the pluggable admission controller. admit is called with
// the node mutex held, once per inbound probe.
type admitter interface {
	admit(key uint64, kind probeKind, now time.Time) admitVerdict
}

// flatAdmitter reproduces the node's original capacity model exactly:
// a per-second query counter refusing past MaxProbesPerSecond, with
// pings always admitted.
type flatAdmitter struct {
	capacity int // probes per second; <= 0 means unlimited
	winStart int64
	winCount int
}

func (f *flatAdmitter) admit(key uint64, kind probeKind, now time.Time) admitVerdict {
	if kind == probePing || f.capacity <= 0 {
		return admitVerdict{ok: true}
	}
	sec := now.Unix()
	if sec != f.winStart {
		f.winStart = sec
		f.winCount = 0
	}
	f.winCount++
	if f.winCount > f.capacity {
		return admitVerdict{tier: shedFlat}
	}
	return admitVerdict{ok: true}
}

// Fair-admission sketch geometry. Like Stochastic Fair Blue, requester
// demand is tracked in FairLevels independent hash rows of FairBuckets
// counters each; a requester's demand estimate is the minimum of its
// buckets, so two requesters must collide in every row before one can
// inherit the other's heat. Memory is constant: 4x64 u32 counters.
//
// The geometry is exported because the cluster shed-state protocol
// (node/cluster) ships these exact arrays on the wire: nodes push
// bucket deltas and pull a cluster-merged aggregate, so both sides
// must agree on the shape (and, via the shared salt, on which bucket a
// requester hashes to).
const (
	FairLevels  = 4
	FairBuckets = 64
)

// AdmissionDelta is the fair sketch's demand counted since the last
// drain: the per-bucket query counts a cluster sync client pushes to
// the shed-state service. Deltas include refused queries — offered
// demand, not admitted demand — so the cluster aggregate sees a
// requester's full appetite.
type AdmissionDelta struct {
	Counts [FairLevels][FairBuckets]uint32
}

// IsZero reports whether the delta carries no demand.
func (d *AdmissionDelta) IsZero() bool {
	for l := range d.Counts {
		for _, c := range d.Counts[l] {
			if c != 0 {
				return false
			}
		}
	}
	return true
}

// AdmissionAggregate is the cluster-merged view of requester demand: a
// per-admission-window estimate of each sketch bucket across every
// node in the cluster, plus the service's active-requester estimate
// (nonzero level-0 buckets of the merged window, for observability).
type AdmissionAggregate struct {
	Counts [FairLevels][FairBuckets]uint32
	Active int
}

// fairAdmitter sheds the heaviest requesters first. Per admission
// window it counts each requester's queries in the sketch; when the
// node is under pressure (the previous or current window's offered
// load exceeds capacity) a query is refused once its requester's
// estimated demand exceeds the fair share capacity/activeRequesters.
// Under pressure pings are shed outright (tier 1) and admitted probes
// skip cache writes; with no pressure everything is admitted up to the
// hard capacity, so an idle node never refuses anyone (the paper's
// work-conserving capacity semantics).
type fairAdmitter struct {
	capacity int           // probes per window (scaled from per-second)
	window   time.Duration // admission window length

	winStart int64 // window index (unix-time / window)
	counts   [FairLevels][FairBuckets]uint32

	// active counts distinct-ish requesters this window (level-0
	// buckets that went nonzero); activePrev carries the previous
	// window's count so fair share is meaningful from a window's first
	// probe.
	active, activePrev int
	// offered/admitted count this window's probes; pressurePrev
	// carries overload across the window boundary so a sustained flash
	// crowd is shed from the first probe of every window.
	offered, admitted int
	pressurePrev      bool

	// delta accrues query counts since the last takeDelta drain
	// (across window rolls — the sync interval need not match the
	// admission window); a cluster sync client pushes it to the
	// shed-state service. Adds saturate instead of wrapping.
	delta AdmissionDelta

	// agg is the cluster-merged demand view installed by the sync
	// client (aggOK false = local-only shedding). Under pressure a
	// requester's demand estimate is max(local, cluster): the cluster
	// estimate already contains this node's pushed demand, so max —
	// not sum — avoids double-counting self while still exposing a
	// requester that spreads its load across nodes.
	agg   AdmissionAggregate
	aggOK bool
}

// newFairAdmitter scales the per-second capacity to the window length.
// A non-positive capacity means unlimited: everything is admitted, as
// in the flat controller.
func newFairAdmitter(perSecond int, window time.Duration) *fairAdmitter {
	if window <= 0 {
		window = time.Second
	}
	cap := 0
	if perSecond > 0 {
		cap = int(float64(perSecond) * window.Seconds())
		if cap < 1 {
			cap = 1
		}
	}
	return &fairAdmitter{capacity: cap, window: window}
}

// roll advances to now's window if it changed, carrying over the
// active-requester and pressure estimates from an immediately
// preceding window and resetting them after an idle gap.
func (f *fairAdmitter) roll(now time.Time) {
	win := now.UnixNano() / int64(f.window)
	if win == f.winStart {
		return
	}
	if win == f.winStart+1 {
		f.activePrev = f.active
		f.pressurePrev = f.offered > f.capacity
	} else {
		f.activePrev = 0
		f.pressurePrev = false
	}
	f.winStart = win
	f.active = 0
	f.offered = 0
	f.admitted = 0
	for l := range f.counts {
		clear(f.counts[l][:])
	}
}

func (f *fairAdmitter) admit(key uint64, kind probeKind, now time.Time) admitVerdict {
	if f.capacity <= 0 {
		return admitVerdict{ok: true}
	}
	f.roll(now)
	f.offered++
	pressure := f.pressurePrev || f.offered > f.capacity

	// Tier 1: pings are deferrable maintenance; under pressure they
	// are shed before any query is.
	if kind == probePing {
		if pressure {
			return admitVerdict{tier: shedPing}
		}
		return admitVerdict{ok: true}
	}

	// Count the query in the sketch (and the cluster delta) and read
	// the requester's demand estimate (min over levels, SFB-style).
	idx := FairIndices(key)
	est := uint32(1<<32 - 1)
	for l := 0; l < FairLevels; l++ {
		b := idx[l]
		f.counts[l][b]++
		if f.delta.Counts[l][b] < ^uint32(0) {
			f.delta.Counts[l][b]++
		}
		if l == 0 && f.counts[l][b] == 1 {
			f.active++
		}
		if f.counts[l][b] < est {
			est = f.counts[l][b]
		}
	}
	// A requester that rotates across the cluster looks light to every
	// node alone; the cluster aggregate exposes its true demand.
	if f.aggOK {
		if a := aggEstimate(&f.agg, idx); a > est {
			est = a
		}
	}

	if f.admitted >= f.capacity {
		return admitVerdict{tier: shedQuery}
	}
	if pressure {
		if int(est) > f.share() {
			return admitVerdict{tier: shedQuery}
		}
		f.admitted++
		return admitVerdict{ok: true, skipCacheWrite: true}
	}
	f.admitted++
	return admitVerdict{ok: true}
}

// aggEstimate reads a requester's cluster-wide demand estimate from an
// aggregate: the SFB min over its bucket in every row.
func aggEstimate(agg *AdmissionAggregate, idx [FairLevels]int) uint32 {
	est := uint32(1<<32 - 1)
	for l := 0; l < FairLevels; l++ {
		if c := agg.Counts[l][idx[l]]; c < est {
			est = c
		}
	}
	return est
}

// takeDelta drains the demand counted since the previous drain,
// reporting whether any demand accrued.
func (f *fairAdmitter) takeDelta() (AdmissionDelta, bool) {
	d := f.delta
	f.delta = AdmissionDelta{}
	return d, !d.IsZero()
}

// setAggregate installs (or, with ok false, clears) the cluster view.
func (f *fairAdmitter) setAggregate(agg AdmissionAggregate, ok bool) {
	f.agg, f.aggOK = agg, ok
}

// resetSketch forgets all counted demand — local windows, the unsent
// delta, and the cluster view. The sync client calls it on salt epoch
// rotation: counts hashed under the old salt land in meaningless
// buckets under the new one.
func (f *fairAdmitter) resetSketch() {
	for l := range f.counts {
		clear(f.counts[l][:])
	}
	f.active, f.activePrev = 0, 0
	f.delta = AdmissionDelta{}
	f.agg, f.aggOK = AdmissionAggregate{}, false
}

// share is the per-requester fair share this window: capacity divided
// by the larger of the current and previous windows' active-requester
// estimates, never below 1. The denominator is deliberately local —
// each node's capacity is contended only by requesters active at that
// node — while the cluster aggregate sharpens only the demand
// estimate in the numerator comparison.
func (f *fairAdmitter) share() int {
	active := f.active
	if f.activePrev > active {
		active = f.activePrev
	}
	if active < 1 {
		active = 1
	}
	s := f.capacity / active
	if s < 1 {
		s = 1
	}
	return s
}

// FairIndices maps a requester key to its bucket in each sketch row
// (the SFB row hashes). Exported so the cluster shed-state service and
// its tests can read a requester's estimate out of a merged aggregate
// with exactly the arithmetic the admitter uses.
func FairIndices(key uint64) [FairLevels]int {
	h1, h2 := uint32(key), uint32(key>>32)
	var idx [FairLevels]int
	for l := 0; l < FairLevels; l++ {
		idx[l] = int((h1 + uint32(l)*h2) % FairBuckets)
	}
	return idx
}

// RequesterKey hashes a requester address into the 64-bit sketch key
// (FNV-1a over the salt, IP, and port). Exported for the cluster
// layer: with a cluster-shared salt (a sync client's rotated epoch
// salt) every node hashes a requester to the same buckets, which is
// what makes merged sketches meaningful. Without a cluster the salt is
// per-node so two nodes never shed the same colliding requesters.
func RequesterKey(addr netip.AddrPort, salt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(salt >> (8 * i)))
	}
	ip := addr.Addr().As16()
	for _, b := range ip {
		mix(b)
	}
	mix(byte(addr.Port()))
	mix(byte(addr.Port() >> 8))
	return h
}
