package gossip

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// testParams is a small, fast configuration exercising loss and churn.
func testParams() Params {
	p := DefaultParams()
	p.NetworkSize = 120
	p.AvgDegree = 6
	p.NumQueries = 60
	p.MaxRounds = 8
	p.DeadFraction = 0.15
	p.LossProb = 0.05
	p.Seed = 11
	return p
}

func run(t *testing.T, p Params) *Results {
	t.Helper()
	res, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func marshal(t *testing.T, res *Results) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NetworkSize = 1 },
		func(p *Params) { p.AvgDegree = 1 },
		func(p *Params) { p.AvgDegree = p.NetworkSize },
		func(p *Params) { p.Fanout = 0 },
		func(p *Params) { p.MaxRounds = 0 },
		func(p *Params) { p.RoundInterval = 0 },
		func(p *Params) { p.RoundInterval = -1 },
		func(p *Params) { p.Mode = 0 },
		func(p *Params) { p.Mode = 99 },
		func(p *Params) { p.NumQueries = 0 },
		func(p *Params) { p.NumDesiredResults = 0 },
		func(p *Params) { p.QueryRate = 0 },
		func(p *Params) { p.DeadFraction = -0.1 },
		func(p *Params) { p.DeadFraction = 1 },
		func(p *Params) { p.LossProb = 1 },
		func(p *Params) { p.Content.NumItems = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid params", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestModeStringRoundTrip(t *testing.T) {
	for _, c := range []struct {
		m    Mode
		want string
	}{{ModePush, "push"}, {ModePull, "pull"}, {ModePushPull, "pushpull"}} {
		if got := c.m.String(); got != c.want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(c.m), got, c.want)
		}
	}
	if s := Mode(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown mode String() = %q", s)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := run(t, testParams())
	b := run(t, testParams())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results:\n%s\n%s", marshal(t, a), marshal(t, b))
	}
	p := testParams()
	p.Seed++
	c := run(t, p)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results")
	}
}

func TestInvariantsAcrossModes(t *testing.T) {
	for _, mode := range []Mode{ModePush, ModePull, ModePushPull} {
		t.Run(mode.String(), func(t *testing.T) {
			p := testParams()
			p.Mode = mode
			res := run(t, p)
			checkInvariants(t, p, res)
			if res.Satisfied == 0 {
				t.Error("no query was satisfied; fixture too hostile")
			}
			if res.PeersInformed <= int64(res.Queries) {
				t.Error("rumor never spread beyond origins")
			}
		})
	}
}

// checkInvariants asserts the conservation and budget invariants the
// cross-protocol suite relies on.
func checkInvariants(t *testing.T, p Params, res *Results) {
	t.Helper()
	if res.Queries != p.NumQueries {
		t.Errorf("completed %d queries, want %d", res.Queries, p.NumQueries)
	}
	if res.Satisfied+res.Unsatisfied != res.Queries {
		t.Errorf("satisfied %d + unsatisfied %d != queries %d", res.Satisfied, res.Unsatisfied, res.Queries)
	}
	if res.MessagesSent != res.MessagesDelivered+res.MessagesDropped {
		t.Errorf("conservation violated: sent %d != delivered %d + dropped %d",
			res.MessagesSent, res.MessagesDelivered, res.MessagesDropped)
	}
	if s := res.Satisfaction(); s < 0 || s > 1 {
		t.Errorf("satisfaction %v outside [0,1]", s)
	}
	if res.MaxRoundsUsed > p.MaxRounds {
		t.Errorf("a query used %d rounds, budget %d", res.MaxRoundsUsed, p.MaxRounds)
	}
	var delivered int64
	for v, l := range res.PeerLoads {
		if l < 0 {
			t.Errorf("peer %d has negative load", v)
		}
		delivered += l
	}
	if delivered != res.MessagesDelivered {
		t.Errorf("peer loads sum to %d, delivered %d", delivered, res.MessagesDelivered)
	}
}

func TestPushPullCostsMoreThanPush(t *testing.T) {
	push, pushpull := testParams(), testParams()
	push.Mode, pushpull.Mode = ModePush, ModePushPull
	a, b := run(t, push), run(t, pushpull)
	if b.MessagesPerQuery() <= a.MessagesPerQuery() {
		t.Errorf("push-pull (%v msgs/query) should cost more than push (%v)",
			b.MessagesPerQuery(), a.MessagesPerQuery())
	}
	if b.AvgRounds() > a.AvgRounds() {
		t.Errorf("push-pull (%v rounds) should finish no later than push (%v)",
			b.AvgRounds(), a.AvgRounds())
	}
}

func TestObservabilityDoesNotPerturbRun(t *testing.T) {
	p := testParams()
	bare := run(t, p)

	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var done int
	e.SetObserver(obs.ObserverFunc(func(ev obs.Event) {
		if ev.Kind == obs.EvQueryDone {
			done++
		}
	}))
	instr, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got, want := marshal(t, instr), marshal(t, bare); got != want {
		t.Fatalf("attaching an observer changed Results:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if done != bare.Queries {
		t.Errorf("observer saw %d query_done events, Results say %d", done, bare.Queries)
	}
}

func TestRunContextCancellation(t *testing.T) {
	full := run(t, testParams())
	if full.Interrupted {
		t.Fatal("uncancelled run reported Interrupted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	e.SetObserver(obs.ObserverFunc(func(obs.Event) {
		seen++
		if seen == 200 {
			cancel()
		}
	}))
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatalf("cancelled run should return partial results and nil error, got %v", err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run did not set Interrupted")
	}
	if res.Queries >= full.Queries {
		t.Fatalf("partial run counted %d queries, want < %d", res.Queries, full.Queries)
	}

	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	e2, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run(done)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Interrupted {
		t.Fatal("pre-cancelled run did not set Interrupted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestZeroQueryAccessors(t *testing.T) {
	var res Results
	if res.Satisfaction() != 0 || res.MessagesPerQuery() != 0 || res.AvgRounds() != 0 || res.AvgReach() != 0 {
		t.Fatal("zero-query accessors must return 0")
	}
}
