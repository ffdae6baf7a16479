package core

// Shard-count invariance: the sharded event engine merges per-shard
// queues on (time, global push order), which reproduces exactly the
// total order of a single queue — so Shards=1..K must yield the same
// run, byte for byte. This suite is the tentpole's determinism
// guarantee: across every reuse-battery configuration and several
// seeds, Results, the CSV time-series trace, and the JSONL event trace
// must all be identical at every shard count.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runSharded runs p at the given shard count and returns marshaled
// Results, the CSV trace, the JSONL event trace, and the Prometheus
// metrics exposition.
func runSharded(t *testing.T, p Params, shards int) (string, string, string, string) {
	t.Helper()
	var csv, jsonl, prom strings.Builder
	p.Shards = shards
	p.Trace = &csv
	tw := obs.NewTraceWriter(&jsonl)
	reg := obs.NewRegistry()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(tw)
	e.SetMetrics(obs.NewSimMetrics(reg))
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return marshalResults(t, res), csv.String(), jsonl.String(), prom.String()
}

// diffLine reports the first line where a and b differ.
func diffLine(t *testing.T, label string, a, b string) {
	t.Helper()
	l1, l2 := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(l1) && i < len(l2); i++ {
		if l1[i] != l2[i] {
			t.Fatalf("%s diverged at line %d:\nShards=1: %q\nsharded:  %q", label, i, l1[i], l2[i])
		}
	}
	t.Fatalf("%s lengths diverged: %d vs %d lines", label, len(l1), len(l2))
}

// TestShardedLargeRunSmoke is the invariance check at a population
// well above the battery's small networks: thousands of events per
// shard heap, and connectivity sampled.
func TestShardedLargeRunSmoke(t *testing.T) {
	p := DefaultParams()
	p.NetworkSize = 3 * 2048
	p.WarmupTime = 20
	p.MeasureTime = 100
	p.QueryRate = 0.002
	p.SampleInterval = 10
	p.SampleConnectivity = true
	p.Seed = 7

	wantRes, wantCSV, wantJSONL, wantProm := runSharded(t, p, 1)
	gotRes, gotCSV, gotJSONL, gotProm := runSharded(t, p, 4)
	if gotRes != wantRes {
		t.Fatalf("Shards=4 Results diverged:\n%s\n%s", gotRes, wantRes)
	}
	if gotCSV != wantCSV {
		diffLine(t, "CSV trace", wantCSV, gotCSV)
	}
	if gotJSONL != wantJSONL {
		diffLine(t, "JSONL trace", wantJSONL, gotJSONL)
	}
	if gotProm != wantProm {
		diffLine(t, "metrics exposition", wantProm, gotProm)
	}
}

// TestShardCountInvariance sweeps Shards over {1, 2, 4, 8} for every
// reuse-battery configuration and three seeds, demanding byte-identical
// Results and traces. In -short mode (CI's -race leg still runs the
// full battery; plain `go test -short` trims it) only the first seed
// runs.
func TestShardCountInvariance(t *testing.T) {
	seeds := []uint64{31, 62, 93}
	if testing.Short() {
		seeds = seeds[:1]
	}
	//lint:maporder-ok subtests are independent; execution order does not affect any result
	for name, p := range reuseTestConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				p.Seed = seed
				wantRes, wantCSV, wantJSONL, wantProm := runSharded(t, p, 1)
				if wantJSONL == "" || wantCSV == "" || wantProm == "" {
					t.Fatal("empty trace; comparison is vacuous")
				}
				for _, shards := range []int{2, 4, 8} {
					gotRes, gotCSV, gotJSONL, gotProm := runSharded(t, p, shards)
					if gotRes != wantRes {
						t.Fatalf("seed %d Shards=%d: Results diverged:\n%s\n%s",
							seed, shards, gotRes, wantRes)
					}
					if gotCSV != wantCSV {
						diffLine(t, "CSV trace", wantCSV, gotCSV)
					}
					if gotJSONL != wantJSONL {
						diffLine(t, "JSONL trace", wantJSONL, gotJSONL)
					}
					if gotProm != wantProm {
						diffLine(t, "metrics exposition", wantProm, gotProm)
					}
				}
			}
		})
	}
}
