package experiments

// The typed experiment-spec API. A Spec is a serializable description
// of one sweep — the protocol family plus the fully-resolved parameter
// set of every sweep point — and a Point is one serializable work unit
// cut from a Spec. Both marshal to plain JSON, which is what makes
// distributed execution possible at all: a worker process can execute
// a Point it received over a wire, because nothing in it names a
// closure that exists only inside this process. Points are
// content-addressed (Key) with the same sha256 params digest the
// in-process sweep memo uses, so the digest doubles as the wire-level
// shared-cache key.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gossip"
)

// Family discriminates the four protocol families an experiment point
// can run on. The discriminator is carried in every Spec, Point,
// PointResult, memo key and wire frame, so results cached or
// transported for one engine can never be served to another.
type Family string

const (
	// FamilyGUESS is the paper's protocol on the full churn engine.
	FamilyGUESS Family = "guess"
	// FamilyFlood is Gnutella flooding over a static overlay.
	FamilyFlood Family = "flood"
	// FamilyGossip is push/pull rumor spreading.
	FamilyGossip Family = "gossip"
	// FamilyDHT is the ring-lookup DHT baseline.
	FamilyDHT Family = "dht"
)

// Families lists every protocol family in canonical order.
func Families() []Family {
	return []Family{FamilyGUESS, FamilyFlood, FamilyGossip, FamilyDHT}
}

// FloodParams configures one flooding run: a static random overlay and
// a query batch over the shared content model. It is the serializable
// form of the flood baseline that used to live inline in the
// cmp-families experiment.
type FloodParams struct {
	// NetworkSize is the number of peers in the static overlay.
	NetworkSize int
	// AvgDegree is the overlay's average degree.
	AvgDegree int
	// TTL bounds flood propagation.
	TTL int
	// NumQueries is the number of flood searches to run.
	NumQueries int
	// NumDesiredResults is how many results satisfy a query.
	NumDesiredResults int
	// Seed drives topology, population, and query randomness.
	Seed uint64
	// Content configures the shared content substrate.
	Content content.Params
}

// DefaultFloodParams returns the cmp-families flood configuration.
func DefaultFloodParams() FloodParams {
	return FloodParams{
		NetworkSize:       400,
		AvgDegree:         8,
		TTL:               4,
		NumQueries:        1000,
		NumDesiredResults: 1,
		Seed:              1,
		Content:           content.DefaultParams(),
	}
}

// Validate checks flood parameter sanity.
func (p FloodParams) Validate() error {
	switch {
	case p.NetworkSize < 2:
		return fmt.Errorf("flood: NetworkSize must be >= 2, got %d", p.NetworkSize)
	case p.AvgDegree < 1 || p.AvgDegree >= p.NetworkSize:
		return fmt.Errorf("flood: AvgDegree %d out of range for %d peers", p.AvgDegree, p.NetworkSize)
	case p.TTL < 1:
		return fmt.Errorf("flood: TTL must be >= 1, got %d", p.TTL)
	case p.NumQueries < 1:
		return fmt.Errorf("flood: NumQueries must be >= 1, got %d", p.NumQueries)
	case p.NumDesiredResults < 1:
		return fmt.Errorf("flood: NumDesiredResults must be >= 1, got %d", p.NumDesiredResults)
	}
	return p.Content.Validate()
}

// FloodResults reports one flooding run.
type FloodResults struct {
	// Queries partitions into Satisfied + Unsatisfied.
	Queries     int
	Satisfied   int
	Unsatisfied int
	// Messages is the total flood forwards across queries.
	Messages int64
	// PeerLoads counts messages received per peer.
	PeerLoads []int64
}

// Satisfaction returns the satisfied fraction of queries.
func (r *FloodResults) Satisfaction() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Satisfied) / float64(r.Queries)
}

// MessagesPerQuery returns the mean flood messages per query.
func (r *FloodResults) MessagesPerQuery() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Messages) / float64(r.Queries)
}

// Spec is a serializable description of one sweep: the protocol family
// and the fully-resolved parameters of every sweep point, in order.
// Exactly one of the per-family slices must be non-empty, and it must
// match Family.
//
// Label names the sweep for the process-level memo: two Specs with the
// same family, label, options and parameter digest share one cached
// execution (Figures 3-5 share the cache-size sweep this way). An
// empty Label disables memoization — the sweep executes every time.
type Spec struct {
	Family Family `json:"family"`
	Label  string `json:"label,omitempty"`

	Core   []core.Params   `json:"core,omitempty"`
	Flood  []FloodParams   `json:"flood,omitempty"`
	Gossip []gossip.Params `json:"gossip,omitempty"`
	DHT    []dht.Params    `json:"dht,omitempty"`
}

// NumPoints returns the number of sweep points the spec declares.
func (s Spec) NumPoints() int {
	return len(s.Core) + len(s.Flood) + len(s.Gossip) + len(s.DHT)
}

// Validate checks that the spec names a known family and that exactly
// the matching parameter slice is populated.
func (s Spec) Validate() error {
	counts := map[Family]int{
		FamilyGUESS:  len(s.Core),
		FamilyFlood:  len(s.Flood),
		FamilyGossip: len(s.Gossip),
		FamilyDHT:    len(s.DHT),
	}
	want, ok := counts[s.Family]
	if !ok {
		return fmt.Errorf("experiments: spec %q: unknown family %q", s.Label, s.Family)
	}
	if want == 0 {
		return fmt.Errorf("experiments: spec %q: family %q declared but no %q params given", s.Label, s.Family, s.Family)
	}
	for _, f := range Families() {
		if f != s.Family && counts[f] != 0 {
			return fmt.Errorf("experiments: spec %q: family is %q but %d %q params are set", s.Label, s.Family, counts[f], f)
		}
	}
	return nil
}

// Point returns the i'th sweep point as a standalone work unit.
func (s Spec) Point(i int) Point {
	switch s.Family {
	case FamilyGUESS:
		p := s.Core[i]
		return Point{Family: FamilyGUESS, Core: &p}
	case FamilyFlood:
		p := s.Flood[i]
		return Point{Family: FamilyFlood, Flood: &p}
	case FamilyGossip:
		p := s.Gossip[i]
		return Point{Family: FamilyGossip, Gossip: &p}
	case FamilyDHT:
		p := s.DHT[i]
		return Point{Family: FamilyDHT, DHT: &p}
	}
	panic(fmt.Sprintf("experiments: Point on invalid family %q", s.Family))
}

// digest hashes the spec's parameter slice for the memo key, with the
// same length-prefixed JSON encoding the pre-Spec memo paths used, so
// keys stay stable across the API migration.
func (s Spec) digest() string {
	switch s.Family {
	case FamilyGUESS:
		return paramsDigest(s.Core)
	case FamilyFlood:
		return paramsDigest(s.Flood)
	case FamilyGossip:
		return paramsDigest(s.Gossip)
	case FamilyDHT:
		return paramsDigest(s.DHT)
	}
	return paramsDigest([]struct{}{})
}

// Point is one serializable work unit: a family discriminator plus
// exactly one populated parameter set. This is the value a distributed
// worker receives over the wire and executes with RunPoint.
type Point struct {
	Family Family         `json:"family"`
	Core   *core.Params   `json:"core,omitempty"`
	Flood  *FloodParams   `json:"flood,omitempty"`
	Gossip *gossip.Params `json:"gossip,omitempty"`
	DHT    *dht.Params    `json:"dht,omitempty"`
}

// Validate checks that the point carries exactly the parameter set its
// family declares.
func (pt Point) Validate() error {
	set := map[Family]bool{
		FamilyGUESS:  pt.Core != nil,
		FamilyFlood:  pt.Flood != nil,
		FamilyGossip: pt.Gossip != nil,
		FamilyDHT:    pt.DHT != nil,
	}
	ok, known := set[pt.Family]
	if !known {
		return fmt.Errorf("experiments: point has unknown family %q", pt.Family)
	}
	if !ok {
		return fmt.Errorf("experiments: point family %q has no %q params", pt.Family, pt.Family)
	}
	for _, f := range Families() {
		if f != pt.Family && set[f] {
			return fmt.Errorf("experiments: point family is %q but %q params are set", pt.Family, f)
		}
	}
	return nil
}

// Key returns the point's content address: the family discriminator
// plus the sha256 digest of the parameters, using the same
// length-prefixed JSON hashing as the sweep memo. Two points with
// equal keys produce identical results under the determinism
// guarantees, so the key serves as the wire-level shared-cache key —
// a point computed by any worker, or by a prior run feeding a disk
// cache, is never recomputed.
func (pt Point) Key() string {
	var digest string
	switch pt.Family {
	case FamilyGUESS:
		digest = paramsDigest([]core.Params{*pt.Core})
	case FamilyFlood:
		digest = paramsDigest([]FloodParams{*pt.Flood})
	case FamilyGossip:
		digest = paramsDigest([]gossip.Params{*pt.Gossip})
	case FamilyDHT:
		digest = paramsDigest([]dht.Params{*pt.DHT})
	default:
		panic(fmt.Sprintf("experiments: Key on invalid point family %q", pt.Family))
	}
	return string(pt.Family) + ":" + digest
}

// PointResult is the serializable outcome of one point: the family
// discriminator plus exactly one populated result set.
type PointResult struct {
	Family Family          `json:"family"`
	Core   *core.Results   `json:"core,omitempty"`
	Flood  *FloodResults   `json:"flood,omitempty"`
	Gossip *gossip.Results `json:"gossip,omitempty"`
	DHT    *dht.Results    `json:"dht,omitempty"`
}

// Validate checks that the result carries exactly the payload its
// family declares — the receiving side of a wire transfer uses this to
// reject frames whose body does not match their discriminator.
func (pr PointResult) Validate() error {
	set := map[Family]bool{
		FamilyGUESS:  pr.Core != nil,
		FamilyFlood:  pr.Flood != nil,
		FamilyGossip: pr.Gossip != nil,
		FamilyDHT:    pr.DHT != nil,
	}
	ok, known := set[pr.Family]
	if !known {
		return fmt.Errorf("experiments: result has unknown family %q", pr.Family)
	}
	if !ok {
		return fmt.Errorf("experiments: result family %q has no %q payload", pr.Family, pr.Family)
	}
	for _, f := range Families() {
		if f != pr.Family && set[f] {
			return fmt.Errorf("experiments: result family is %q but %q payload is set", pr.Family, f)
		}
	}
	return nil
}

// Executor runs a batch of expanded sweep points, returning results in
// input order. It is the seam distributed execution plugs into: when
// Options.Executor is non-nil, RunSpec hands every expanded point
// batch to it instead of the built-in in-process pool.
// internal/orchestrate's coordinator and local worker pool implement
// it. Implementations must return results identical to the local
// path's for identical points — the determinism guarantees make every
// point a pure function of its parameters, and the
// distributed-vs-local byte-identity tests hold implementations to it.
type Executor interface {
	RunPoints(ctx context.Context, pts []Point) ([]PointResult, error)
}

// DispatchOrder returns the indices of pts in the order an executor
// hands them to its workers: costliest first by an estimate from each
// point's own parameters, ties in input order. A batch ends when its
// last point does, so a costly point dispatched last runs alone at the
// end while the other workers idle; dispatched first, it runs while
// the cheap points fill in beside it. Results are unchanged, each
// being a pure function of its point.
//
// A GUESS point's estimate is NetworkSize × CacheSize × simulated
// seconds: events grow with the peers and the simulated time, and a
// query's probes with the cache. The other families have no estimate,
// so their batches keep input order.
func DispatchOrder(pts []Point) []int {
	cost := make([]float64, len(pts))
	order := make([]int, len(pts))
	for i, pt := range pts {
		order[i] = i
		if p := pt.Core; p != nil {
			cost[i] = float64(p.NetworkSize) * float64(p.CacheSize) * (p.WarmupTime + p.MeasureTime)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}

// coreResultsOf unwraps a GUESS point-result batch.
func coreResultsOf(prs []PointResult) []*core.Results {
	out := make([]*core.Results, len(prs))
	for i, pr := range prs {
		out[i] = pr.Core
	}
	return out
}
