package core

import (
	"sort"

	"repro/internal/obs"
)

// Results aggregates everything measured during a run's measurement
// window. Query counters cover queries that both started and completed
// inside the window; cache-health figures are averages over periodic
// samples.
type Results struct {
	// Queries is the number of completed, counted queries.
	Queries int
	// Satisfied and Unsatisfied partition Queries.
	Satisfied, Unsatisfied int
	// Aborted counts queries whose originator died mid-query or that
	// were still running when the simulation ended; they are excluded
	// from all per-query averages.
	Aborted int

	// Probe counters over counted queries. ProbesTotal =
	// GoodProbes + DeadProbes + RefusedProbes.
	ProbesTotal, GoodProbes, DeadProbes, RefusedProbes int64

	// ResponseTimeSum is the summed virtual seconds from query start to
	// completion over counted queries.
	ResponseTimeSum float64

	// Pings and PongEntriesReceived count maintenance traffic during
	// the measurement window (all peers).
	Pings, DeadPings int64

	// Cache health, averaged over samples and peers.
	AvgCacheEntries  float64 // entries held (live or dead)
	AvgLiveEntries   float64 // entries pointing at live peers
	AvgLiveFraction  float64 // per-peer live/held ratio (peers with entries)
	AvgGoodEntries   float64 // good peers' entries pointing at live good peers
	CacheSamples     int
	AvgLargestWCC    float64 // only when SampleConnectivity
	FinalLargestWCC  int     // only when SampleConnectivity
	ConnectivityRuns int     // number of connectivity samples taken

	// PeerLoads holds probes received (by live peers, including
	// refused) during the measurement window, one value per peer that
	// was alive at any point in it.
	PeerLoads []int64

	// Churn counters over the whole run.
	Births, Deaths int

	// BlacklistEvents counts poison-detection convictions (only with
	// the PoisonDetection extension enabled).
	BlacklistEvents int64

	// Interrupted reports that the run's context was cancelled before
	// the configured duration elapsed. The other fields still hold
	// everything measured up to the interruption point.
	Interrupted bool
}

// Record adds r's counters to the simulator metric set (guess_sim_*,
// see README.md, "Observability") in reg and sets its cache gauges to
// r's window means. Metrics are a view of a finished run's Results, so
// the two cannot disagree; recording runs in a fixed order gives the
// same registry however they were executed. A nil reg records nothing.
func (r *Results) Record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("guess_sim_queries_total", "Completed counted queries.").Add(uint64(r.Queries))
	reg.Counter("guess_sim_queries_satisfied_total", "Counted queries that reached NumDesiredResults.").Add(uint64(r.Satisfied))
	reg.Counter("guess_sim_queries_unsatisfied_total", "Counted queries that exhausted candidates unsatisfied.").Add(uint64(r.Unsatisfied))
	reg.Counter("guess_sim_queries_aborted_total", "Counted queries whose originator died or that outlived the run.").Add(uint64(r.Aborted))
	reg.Counter("guess_sim_probes_total", "Query probes sent by counted queries.").Add(uint64(r.ProbesTotal))
	reg.Counter("guess_sim_probes_good_total", "Probes answered by live peers.").Add(uint64(r.GoodProbes))
	reg.Counter("guess_sim_probes_dead_total", "Probes wasted on dead addresses.").Add(uint64(r.DeadProbes))
	reg.Counter("guess_sim_probes_refused_total", "Probes refused by overloaded peers.").Add(uint64(r.RefusedProbes))
	reg.Counter("guess_sim_pings_total", "Maintenance pings sent in the measurement window.").Add(uint64(r.Pings))
	reg.Counter("guess_sim_pings_dead_total", "Maintenance pings that hit dead addresses.").Add(uint64(r.DeadPings))
	reg.Counter("guess_sim_births_total", "Peer births (whole run).").Add(uint64(r.Births))
	reg.Counter("guess_sim_deaths_total", "Peer deaths (whole run).").Add(uint64(r.Deaths))
	reg.Counter("guess_sim_blacklists_total", "Poison-detection convictions.").Add(uint64(r.BlacklistEvents))
	reg.Gauge("guess_sim_cache_entries_avg", "Mean link-cache entries held per peer over the last recorded run's measurement window.").Set(r.AvgCacheEntries)
	reg.Gauge("guess_sim_cache_live_entries_avg", "Mean live link-cache entries per peer over the last recorded run's measurement window.").Set(r.AvgLiveEntries)
}

// ProbesPerQuery returns the average number of probes per counted
// query (0 when no queries completed).
func (r *Results) ProbesPerQuery() float64 { return r.perQuery(float64(r.ProbesTotal)) }

// GoodProbesPerQuery returns the average probes answered by live peers.
func (r *Results) GoodProbesPerQuery() float64 { return r.perQuery(float64(r.GoodProbes)) }

// DeadProbesPerQuery returns the average probes wasted on dead
// addresses.
func (r *Results) DeadProbesPerQuery() float64 { return r.perQuery(float64(r.DeadProbes)) }

// RefusedProbesPerQuery returns the average probes refused by
// overloaded peers.
func (r *Results) RefusedProbesPerQuery() float64 { return r.perQuery(float64(r.RefusedProbes)) }

// Unsatisfaction returns the fraction of counted queries that did not
// reach NumDesiredResults.
func (r *Results) Unsatisfaction() float64 { return r.perQuery(float64(r.Unsatisfied)) }

// UnsatisfactionWithAborted additionally counts aborted queries
// (querier died mid-query, or the query outlived the run) as
// unsatisfied. This matches the paper's user-visible satisfaction
// metric: queries at very large cache sizes run for hundreds of
// simulated seconds, and their originators' deaths are a real failure
// mode of slow searches.
func (r *Results) UnsatisfactionWithAborted() float64 {
	total := r.Queries + r.Aborted
	if total == 0 {
		return 0
	}
	return float64(r.Unsatisfied+r.Aborted) / float64(total)
}

// AvgResponseTime returns the mean virtual seconds to complete a query.
func (r *Results) AvgResponseTime() float64 { return r.perQuery(r.ResponseTimeSum) }

func (r *Results) perQuery(v float64) float64 {
	if r.Queries == 0 {
		return 0
	}
	return v / float64(r.Queries)
}

// RankedLoads returns PeerLoads sorted in descending order (the
// Figure 13 presentation).
func (r *Results) RankedLoads() []int64 {
	out := append([]int64(nil), r.PeerLoads...)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// TotalLoad returns the sum of PeerLoads.
func (r *Results) TotalLoad() int64 {
	var sum int64
	for _, l := range r.PeerLoads {
		sum += l
	}
	return sum
}
