package experiments

import (
	"context"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gnutella"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/simrng"
)

// The cross-protocol property suite: every search family in the repo —
// GUESS (core), Gnutella flooding, gossip rumor spreading, and the DHT
// ring — runs under identical seeds across a table of configurations,
// and each must uphold the shared conservation invariants:
//
//   - messages sent == delivered + dropped (or the family's probe
//     outcome partition, for families without an explicit drop model);
//   - satisfaction lies in [0,1] and satisfied + unsatisfied
//     partitions the query count;
//   - no query outlives its budget (TTL, round cap, hop cap, or
//     per-query probe cap).
//
// Configurations deliberately include degenerate corners (zero loss,
// zero cache, fanout 1, tiny networks) where off-by-one accounting
// bugs are most visible.

// protoConfig is one knob setting exercised by all four families.
type protoConfig struct {
	name string
	n    int

	// Shared gossip/DHT static failure model.
	dead, loss float64

	// Gossip knobs.
	mode      gossip.Mode
	fanout    int
	maxRounds int

	// DHT knobs.
	maxHops  int
	dhtCache int

	// Flood knobs.
	ttl    int
	degree int

	// GUESS knobs.
	guessCache int
	maxProbes  int // MaxProbesPerQuery; 0 = unlimited
}

var protoConfigs = []protoConfig{
	{name: "baseline", n: 80, dead: 0.1, loss: 0.05, mode: gossip.ModePushPull,
		fanout: 2, maxRounds: 12, maxHops: 32, dhtCache: 16, ttl: 4, degree: 6,
		guessCache: 10},
	{name: "lossless", n: 60, dead: 0, loss: 0, mode: gossip.ModePush,
		fanout: 3, maxRounds: 8, maxHops: 16, dhtCache: 0, ttl: 3, degree: 4,
		guessCache: 8, maxProbes: 40},
	{name: "lossy", n: 80, dead: 0.2, loss: 0.25, mode: gossip.ModePull,
		fanout: 2, maxRounds: 16, maxHops: 40, dhtCache: 32, ttl: 5, degree: 6,
		guessCache: 6, maxProbes: 20},
	{name: "tiny-net", n: 40, dead: 0.1, loss: 0.05, mode: gossip.ModePushPull,
		fanout: 1, maxRounds: 6, maxHops: 10, dhtCache: 4, ttl: 2, degree: 4,
		guessCache: 4, maxProbes: 10},
	{name: "high-fanout", n: 100, dead: 0.05, loss: 0.02, mode: gossip.ModePush,
		fanout: 6, maxRounds: 4, maxHops: 24, dhtCache: 8, ttl: 3, degree: 8,
		guessCache: 12},
	{name: "deep-flood", n: 90, dead: 0.15, loss: 0.1, mode: gossip.ModePull,
		fanout: 3, maxRounds: 10, maxHops: 32, dhtCache: 16, ttl: 6, degree: 8,
		guessCache: 10, maxProbes: 60},
	{name: "big-cache", n: 70, dead: 0.1, loss: 0.05, mode: gossip.ModePushPull,
		fanout: 2, maxRounds: 12, maxHops: 32, dhtCache: 64, ttl: 4, degree: 6,
		guessCache: 30},
	{name: "tight-budget", n: 60, dead: 0.1, loss: 0.05, mode: gossip.ModePushPull,
		fanout: 2, maxRounds: 3, maxHops: 6, dhtCache: 8, ttl: 2, degree: 5,
		guessCache: 8, maxProbes: 12},
}

var protoSeeds = []uint64{1, 7, 1001}

const (
	protoQueries = 30 // per-family query/lookup count per subtest
	protoDesired = 1
)

func TestCrossProtocolInvariants(t *testing.T) {
	for _, cfg := range protoConfigs {
		for _, seed := range protoSeeds {
			cfg, seed := cfg, seed
			t.Run(cfg.name+"/seed="+simrngSeedLabel(seed), func(t *testing.T) {
				checkGuessInvariants(t, cfg, seed)
				checkFloodInvariants(t, cfg, seed)
				checkGossipInvariants(t, cfg, seed)
				checkDHTInvariants(t, cfg, seed)
			})
		}
	}
}

func simrngSeedLabel(seed uint64) string {
	// strconv is avoided to keep the import list tight; seeds are small.
	digits := ""
	for seed > 0 {
		digits = string(rune('0'+seed%10)) + digits
		seed /= 10
	}
	if digits == "" {
		digits = "0"
	}
	return digits
}

// doneCollector records per-query probe totals from EvQueryDone events
// so the per-query probe budget can be checked even though Results
// only exposes aggregates.
type doneCollector struct {
	mu     sync.Mutex
	probes []int
}

func (c *doneCollector) Observe(e obs.Event) {
	if e.Kind != obs.EvQueryDone {
		return
	}
	c.mu.Lock()
	c.probes = append(c.probes, e.Probes)
	c.mu.Unlock()
}

func checkGuessInvariants(t *testing.T, cfg protoConfig, seed uint64) {
	t.Helper()
	p := core.DefaultParams()
	p.NetworkSize = cfg.n
	p.CacheSize = cfg.guessCache
	p.MaxProbesPerQuery = cfg.maxProbes
	p.WarmupTime = 5
	p.MeasureTime = 25
	p.Seed = seed
	engine, err := core.New(p)
	if err != nil {
		t.Fatalf("GUESS: %v", err)
	}
	var done doneCollector
	engine.SetObserver(&done)
	res, err := engine.Run(context.Background())
	if err != nil {
		t.Fatalf("GUESS: %v", err)
	}
	// Probe outcome partition: every probe is good, dead, or refused.
	if res.ProbesTotal != res.GoodProbes+res.DeadProbes+res.RefusedProbes {
		t.Fatalf("GUESS probe conservation: total %d != good %d + dead %d + refused %d",
			res.ProbesTotal, res.GoodProbes, res.DeadProbes, res.RefusedProbes)
	}
	if res.Satisfied+res.Unsatisfied != res.Queries {
		t.Fatalf("GUESS partition: satisfied %d + unsatisfied %d != queries %d",
			res.Satisfied, res.Unsatisfied, res.Queries)
	}
	if sat := 1 - res.UnsatisfactionWithAborted(); sat < 0 || sat > 1 {
		t.Fatalf("GUESS satisfaction %v outside [0,1]", sat)
	}
	// Per-query probe budget, observed at the event level.
	if cfg.maxProbes > 0 {
		for _, probes := range done.probes {
			if probes > cfg.maxProbes {
				t.Fatalf("GUESS query used %d probes, budget %d", probes, cfg.maxProbes)
			}
		}
	}
	if len(done.probes) == 0 {
		t.Fatal("GUESS run completed no queries; config too small to be meaningful")
	}
}

func checkFloodInvariants(t *testing.T, cfg protoConfig, seed uint64) {
	t.Helper()
	u, err := content.New(content.DefaultParams())
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	rng := simrng.New(seed).Stream("crossproto-flood")
	topo, err := gnutella.NewRandom(rng, cfg.n, cfg.degree)
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	pop, err := gnutella.NewPopulation(u, cfg.n, rng)
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	satisfied := 0
	var scratch gnutella.FloodScratch
	for q := 0; q < protoQueries; q++ {
		res, fs, err := gnutella.FloodSearch(topo, pop, rng, &scratch, rng.Intn(cfg.n), cfg.ttl, protoDesired)
		if err != nil {
			t.Fatalf("flood: %v", err)
		}
		if res.Satisfied {
			satisfied++
			if res.Results < protoDesired {
				t.Fatalf("flood satisfied with %d results, desired %d", res.Results, protoDesired)
			}
		}
		// Reach conservation: the origin is always reached, never more
		// peers than exist, and each non-origin peer needed a message.
		if r := len(fs.Reached); r < 1 || r > cfg.n {
			t.Fatalf("flood reached %d peers of %d", r, cfg.n)
		}
		if fs.Messages < len(fs.Reached)-1 {
			t.Fatalf("flood reached %d peers on %d messages", len(fs.Reached), fs.Messages)
		}
		// TTL budget analog: only reached peers forward, each to at most
		// its neighbor count, at most once per flood.
		maxMessages := 0
		for _, v := range fs.Reached {
			maxMessages += len(topo.Neighbors(v))
		}
		if fs.Messages > maxMessages {
			t.Fatalf("flood sent %d messages, forwarding bound %d", fs.Messages, maxMessages)
		}
	}
	if rate := float64(satisfied) / protoQueries; rate < 0 || rate > 1 {
		t.Fatalf("flood satisfaction %v outside [0,1]", rate)
	}
}

func checkGossipInvariants(t *testing.T, cfg protoConfig, seed uint64) {
	t.Helper()
	p := gossip.DefaultParams()
	p.NetworkSize = cfg.n
	p.AvgDegree = cfg.degree
	p.Mode = cfg.mode
	p.Fanout = cfg.fanout
	p.MaxRounds = cfg.maxRounds
	p.NumQueries = protoQueries
	p.NumDesiredResults = protoDesired
	p.DeadFraction = cfg.dead
	p.LossProb = cfg.loss
	p.Seed = seed
	res, err := gossip.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("gossip: %v", err)
	}
	if res.Queries != protoQueries {
		t.Fatalf("gossip completed %d queries, want %d", res.Queries, protoQueries)
	}
	if res.Satisfied+res.Unsatisfied != res.Queries {
		t.Fatalf("gossip partition: satisfied %d + unsatisfied %d != queries %d",
			res.Satisfied, res.Unsatisfied, res.Queries)
	}
	if res.MessagesSent != res.MessagesDelivered+res.MessagesDropped {
		t.Fatalf("gossip conservation: sent %d != delivered %d + dropped %d",
			res.MessagesSent, res.MessagesDelivered, res.MessagesDropped)
	}
	if sat := res.Satisfaction(); sat < 0 || sat > 1 {
		t.Fatalf("gossip satisfaction %v outside [0,1]", sat)
	}
	if res.MaxRoundsUsed > cfg.maxRounds {
		t.Fatalf("gossip query ran %d rounds, budget %d", res.MaxRoundsUsed, cfg.maxRounds)
	}
	var loadSum int64
	for _, l := range res.PeerLoads {
		loadSum += l
	}
	if loadSum != res.MessagesDelivered {
		t.Fatalf("gossip load sum %d != delivered %d", loadSum, res.MessagesDelivered)
	}
}

func checkDHTInvariants(t *testing.T, cfg protoConfig, seed uint64) {
	t.Helper()
	p := dht.DefaultParams()
	p.NetworkSize = cfg.n
	p.CacheSize = cfg.dhtCache
	p.MaxHops = cfg.maxHops
	p.NumLookups = protoQueries
	p.NumDesiredResults = protoDesired
	p.DeadFraction = cfg.dead
	p.LossProb = cfg.loss
	p.Seed = seed
	res, err := dht.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("dht: %v", err)
	}
	if res.Lookups != protoQueries {
		t.Fatalf("dht completed %d lookups, want %d", res.Lookups, protoQueries)
	}
	if res.Satisfied+res.Unsatisfied != res.Lookups {
		t.Fatalf("dht partition: satisfied %d + unsatisfied %d != lookups %d",
			res.Satisfied, res.Unsatisfied, res.Lookups)
	}
	if res.MessagesSent != res.MessagesDelivered+res.MessagesDropped {
		t.Fatalf("dht conservation: sent %d != delivered %d + dropped %d",
			res.MessagesSent, res.MessagesDelivered, res.MessagesDropped)
	}
	if sat := res.Satisfaction(); sat < 0 || sat > 1 {
		t.Fatalf("dht satisfaction %v outside [0,1]", sat)
	}
	if res.MaxHopsUsed > cfg.maxHops {
		t.Fatalf("dht lookup used %d hops, budget %d", res.MaxHopsUsed, cfg.maxHops)
	}
	var loadSum int64
	for _, l := range res.PeerLoads {
		loadSum += l
	}
	if loadSum != res.MessagesDelivered {
		t.Fatalf("dht load sum %d != delivered %d", loadSum, res.MessagesDelivered)
	}
}

// TestCrossProtocolSeedDeterminism runs one configuration twice per
// family at the same seed and requires identical aggregates — the
// cross-family analog of each package's own determinism test, from the
// experiments layer's point of view.
func TestCrossProtocolSeedDeterminism(t *testing.T) {
	cfg := protoConfigs[0]
	const seed = 99

	gp := gossip.DefaultParams()
	gp.NetworkSize = cfg.n
	gp.NumQueries = protoQueries
	gp.Seed = seed
	g1, err := gossip.Run(context.Background(), gp)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gossip.Run(context.Background(), gp)
	if err != nil {
		t.Fatal(err)
	}
	if g1.MessagesSent != g2.MessagesSent || g1.Satisfied != g2.Satisfied || g1.RoundsTotal != g2.RoundsTotal {
		t.Fatalf("gossip aggregates diverged: %+v vs %+v", g1, g2)
	}

	dp := dht.DefaultParams()
	dp.NetworkSize = cfg.n
	dp.NumLookups = protoQueries
	dp.Seed = seed
	d1, err := dht.Run(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dht.Run(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}
	if d1.MessagesSent != d2.MessagesSent || d1.Satisfied != d2.Satisfied || d1.HopsTotal != d2.HopsTotal {
		t.Fatalf("dht aggregates diverged: %+v vs %+v", d1, d2)
	}
}
