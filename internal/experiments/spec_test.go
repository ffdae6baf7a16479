package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gossip"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Family: FamilyGUESS, Core: []core.Params{tinyParams(1)}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown family", Spec{Family: "quantum", Core: []core.Params{tinyParams(1)}}},
		{"no params", Spec{Family: FamilyGUESS}},
		{"wrong slice", Spec{Family: FamilyGUESS, Gossip: []gossip.Params{gossip.DefaultParams()}}},
		{"two slices", Spec{
			Family: FamilyGUESS,
			Core:   []core.Params{tinyParams(1)},
			DHT:    []dht.Params{dht.DefaultParams()},
		}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
}

func TestSpecPointRoundTrip(t *testing.T) {
	spec := Spec{Family: FamilyGUESS, Core: []core.Params{tinyParams(1), tinyParams(2)}}
	if got := spec.NumPoints(); got != 2 {
		t.Fatalf("NumPoints = %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		pt := spec.Point(i)
		if err := pt.Validate(); err != nil {
			t.Fatalf("point %d invalid: %v", i, err)
		}
		if pt.Core.Seed != spec.Core[i].Seed {
			t.Fatalf("point %d seed %d, want %d", i, pt.Core.Seed, spec.Core[i].Seed)
		}
	}
	// Point must be a copy, not an alias into the spec.
	pt := spec.Point(0)
	pt.Core.Seed = 999
	if spec.Core[0].Seed == 999 {
		t.Fatal("Point aliases the spec's params")
	}
}

func TestPointValidate(t *testing.T) {
	p := tinyParams(1)
	g := gossip.DefaultParams()
	cases := []struct {
		name string
		pt   Point
	}{
		{"unknown family", Point{Family: "quantum", Core: &p}},
		{"missing params", Point{Family: FamilyGUESS}},
		{"extra params", Point{Family: FamilyGUESS, Core: &p, Gossip: &g}},
	}
	for _, tc := range cases {
		if err := tc.pt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid point", tc.name)
		}
	}
}

// TestPointKey pins the content address: family-prefixed, stable for
// equal params, distinct across params and across families.
func TestPointKey(t *testing.T) {
	p1, p2 := tinyParams(1), tinyParams(1)
	a := Point{Family: FamilyGUESS, Core: &p1}
	b := Point{Family: FamilyGUESS, Core: &p2}
	if a.Key() != b.Key() {
		t.Fatalf("equal points got different keys: %q vs %q", a.Key(), b.Key())
	}
	if !strings.HasPrefix(a.Key(), "guess:") {
		t.Fatalf("key %q lacks family prefix", a.Key())
	}
	p3 := tinyParams(2)
	c := Point{Family: FamilyGUESS, Core: &p3}
	if a.Key() == c.Key() {
		t.Fatal("different seeds share a key")
	}
	// JSON round-trip must not change the key — the coordinator hashes
	// locally, the shared cache and workers hash the decoded point.
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != a.Key() {
		t.Fatalf("key changed across JSON round-trip: %q vs %q", back.Key(), a.Key())
	}
}

// TestExpandPointsSeedDerivation pins the exact derivation formulas the
// pre-Spec runner used, so sweep results stay byte-identical across the
// API migration: point index i adds i*0x9e3779b9, and with R>1
// replications rep r of input point i0 first adds (r+1)*0x51ed2701 and
// expands at flat index i0*R+r.
func TestExpandPointsSeedDerivation(t *testing.T) {
	const baseSeed = 100
	params := []core.Params{tinyParams(baseSeed), tinyParams(baseSeed), tinyParams(baseSeed)}
	spec := tinySpec(params)

	flat := expandPoints(Options{}, spec, 1)
	if len(flat) != 3 {
		t.Fatalf("reps=1 expanded to %d points, want 3", len(flat))
	}
	for i, pt := range flat {
		want := uint64(baseSeed) + uint64(i)*pointSeed
		if pt.Core.Seed != want {
			t.Fatalf("reps=1 point %d seed %d, want %d", i, pt.Core.Seed, want)
		}
	}

	const reps = 3
	rep := expandPoints(Options{}, spec, reps)
	if len(rep) != 3*reps {
		t.Fatalf("reps=3 expanded to %d points, want 9", len(rep))
	}
	for i0 := 0; i0 < 3; i0++ {
		for r := 0; r < reps; r++ {
			idx := i0*reps + r
			want := uint64(baseSeed) + uint64(r+1)*replicationSeed + uint64(idx)*pointSeed
			if got := rep[idx].Core.Seed; got != want {
				t.Fatalf("point %d rep %d (flat %d) seed %d, want %d", i0, r, idx, got, want)
			}
		}
	}

	// Non-GUESS families expand verbatim: the engines own their seeds.
	fp := DefaultFloodParams()
	fpts := expandPoints(Options{Replications: 5}, Spec{Family: FamilyFlood, Flood: []FloodParams{fp}}, 1)
	if len(fpts) != 1 || fpts[0].Flood.Seed != fp.Seed {
		t.Fatalf("flood expansion altered the point: %+v", fpts)
	}
}

// tinyFamilyPoints returns one minimal-cost point per protocol family,
// in canonical family order.
func tinyFamilyPoints() []Point {
	gp := gossip.DefaultParams()
	gp.NetworkSize = 50
	gp.NumQueries = 20
	dp := dht.DefaultParams()
	dp.NetworkSize = 50
	dp.NumLookups = 20
	fp := DefaultFloodParams()
	fp.NetworkSize = 50
	fp.NumQueries = 20
	cp := tinyParams(3)
	return []Point{
		{Family: FamilyGUESS, Core: &cp},
		{Family: FamilyFlood, Flood: &fp},
		{Family: FamilyGossip, Gossip: &gp},
		{Family: FamilyDHT, DHT: &dp},
	}
}

// mustJSON marshals v for byte-level comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunPointFamilies runs one tiny point per family through RunPoint
// and checks each yields its family's result, deterministically; a
// family RunPoint does not know is an error, not a run.
func TestRunPointFamilies(t *testing.T) {
	pts := tinyFamilyPoints()
	cases := []struct {
		name    string
		pt      Point
		wantErr bool
	}{
		{"guess", pts[0], false},
		{"flood", pts[1], false},
		{"gossip", pts[2], false},
		{"dht", pts[3], false},
		{"unknown family", Point{Family: "quantum", Core: pts[0].Core}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, err := RunPoint(context.Background(), tc.pt, Observation{})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("RunPoint accepted family %q", tc.pt.Family)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := first.Validate(); err != nil {
				t.Fatalf("result invalid: %v", err)
			}
			if first.Family != tc.pt.Family {
				t.Fatalf("point family %q produced result family %q", tc.pt.Family, first.Family)
			}
			second, err := RunPoint(context.Background(), tc.pt, Observation{})
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			if a, b := mustJSON(t, first), mustJSON(t, second); a != b {
				t.Fatalf("not deterministic:\n%s\n%s", a, b)
			}
		})
	}
}

// TestWorkerRenewMatchesFresh is the Worker's contract: one Worker run
// over a list that mixes the families, and GUESS points of different
// cache capacity, returns what a fresh RunPoint per point returns, byte
// for byte. The GUESS points after the first run on a renewed engine,
// with other families' runs in between.
func TestWorkerRenewMatchesFresh(t *testing.T) {
	fam := tinyFamilyPoints()
	guess, flood, gossipPt, dhtPt := fam[0], fam[1], fam[2], fam[3]
	wider := *guess.Core
	wider.CacheSize = 9 // another capacity: the recycled cache pool is dropped
	wider.Seed = 4
	last := *guess.Core
	last.Seed = 5
	pts := []Point{
		guess,
		gossipPt,
		{Family: FamilyGUESS, Core: &wider},
		dhtPt,
		flood,
		{Family: FamilyGUESS, Core: &last},
	}
	var w Worker
	for i, pt := range pts {
		got, err := w.Run(context.Background(), pt, Observation{})
		if err != nil {
			t.Fatalf("point %d (%s): %v", i, pt.Family, err)
		}
		want, err := RunPoint(context.Background(), pt, Observation{})
		if err != nil {
			t.Fatalf("point %d (%s) fresh: %v", i, pt.Family, err)
		}
		if g, f := mustJSON(t, got), mustJSON(t, want); g != f {
			t.Fatalf("point %d (%s): Worker result differs from a fresh run:\n%s\n%s", i, pt.Family, g, f)
		}
	}
}

// recordingExecutor satisfies Executor by running points locally while
// recording what it was handed.
type recordingExecutor struct {
	pts  []Point
	drop int // return this many results short, to test validation
}

func (e *recordingExecutor) RunPoints(ctx context.Context, pts []Point) ([]PointResult, error) {
	e.pts = append(e.pts, pts...)
	out := make([]PointResult, 0, len(pts))
	for _, pt := range pts {
		pr, err := RunPoint(ctx, pt, Observation{})
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out[:len(out)-e.drop], nil
}

// TestRunSpecExecutorSeam checks that a plugged-in Executor receives
// the fully expanded (seed-derived, replication-expanded) points and
// that its results are interchangeable with the in-process pool's.
func TestRunSpecExecutorSeam(t *testing.T) {
	params := []core.Params{tinyParams(11), tinyParams(12)}
	opts := Options{Parallelism: 2, Replications: 2}

	local, err := RunSpec(opts, tinySpec(params))
	if err != nil {
		t.Fatal(err)
	}
	exec := &recordingExecutor{}
	optsX := opts
	optsX.Executor = exec
	remote, err := RunSpec(optsX, tinySpec(params))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(params) * 2; len(exec.pts) != want {
		t.Fatalf("executor saw %d points, want %d (replication-expanded)", len(exec.pts), want)
	}
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(remote)
	if string(a) != string(b) {
		t.Fatalf("executor path differs from local pool:\n%s\n%s", a, b)
	}

	// A short result batch must be rejected, not silently scattered.
	optsX.Executor = &recordingExecutor{drop: 1}
	if _, err := RunSpec(optsX, tinySpec(params)); err == nil {
		t.Fatal("RunSpec accepted an executor result batch of the wrong length")
	}
}

// TestMemoIsPerExecutor checks that a labelled sweep memoized on one
// executor is run again on another, and memoized on each: a local
// pass must not answer a distributed one.
func TestMemoIsPerExecutor(t *testing.T) {
	spec := tinySpec([]core.Params{tinyParams(31)})
	spec.Label = "memo-per-executor"
	if _, err := RunSpec(Options{}, spec); err != nil {
		t.Fatal(err)
	}
	exec := &recordingExecutor{}
	for pass := 0; pass < 2; pass++ {
		if _, err := RunSpec(Options{Executor: exec}, spec); err != nil {
			t.Fatal(err)
		}
		if len(exec.pts) != 1 {
			t.Fatalf("after pass %d the executor saw %d points, want 1", pass, len(exec.pts))
		}
	}
}

// TestRunSpecReplicationsMerge checks the generic executor merges
// replication groups exactly as merging the individually-run points.
func TestRunSpecReplicationsMerge(t *testing.T) {
	params := []core.Params{tinyParams(21), tinyParams(22)}
	const reps = 2
	opts := Options{Parallelism: 2, Replications: reps}
	merged, err := RunSpec(opts, tinySpec(params))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(params) {
		t.Fatalf("got %d merged results, want %d", len(merged), len(params))
	}
	expanded := expandPoints(opts, tinySpec(params), reps)
	for i := range params {
		group := make([]*core.Results, reps)
		for r := 0; r < reps; r++ {
			pr, err := RunPoint(context.Background(), expanded[i*reps+r], Observation{})
			if err != nil {
				t.Fatal(err)
			}
			group[r] = pr.Core
		}
		want, _ := json.Marshal(core.MergeResults(group))
		got, _ := json.Marshal(merged[i].Core)
		if string(got) != string(want) {
			t.Fatalf("point %d merge mismatch:\n%s\n%s", i, got, want)
		}
	}
}

// TestLookupAndDeprecatedShim checks the typed handle agrees with the
// legacy Run entry.
func TestLookupAndDeprecatedShim(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup accepted unknown id")
	}
	e, err := Lookup("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig8" || e.Title == "" {
		t.Fatalf("Lookup handle incomplete: %+v", e)
	}
	specs := e.Specs(quickOpts())
	if len(specs) == 0 {
		t.Fatal("fig8 has no specs")
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("fig8 spec invalid: %v", err)
		}
	}
	viaHandle, err := e.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	viaShim, err := Run("fig8", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if _, err := viaHandle.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := viaShim.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("deprecated Run shim disagrees with Experiment.Run")
	}
}

// TestEverySpecValidates sanity-checks every registered experiment's
// spec builder at both scales: specs validate, declare points, and
// carry family-consistent parameters.
func TestEverySpecValidates(t *testing.T) {
	for _, id := range IDs() {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []Scale{Quick, Full} {
			for i, s := range e.Specs(Options{Scale: scale, Seed: 7}) {
				if err := s.Validate(); err != nil {
					t.Errorf("%s[%d] @%v: %v", id, i, scale, err)
					continue
				}
				if s.NumPoints() == 0 {
					t.Errorf("%s[%d] @%v: no points", id, i, scale)
				}
				for j := 0; j < s.NumPoints(); j++ {
					if err := s.Point(j).Validate(); err != nil {
						t.Errorf("%s[%d] @%v point %d: %v", id, i, scale, j, err)
					}
				}
			}
		}
	}
}
