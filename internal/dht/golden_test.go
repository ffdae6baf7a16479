package dht

// Fixed-seed golden tests pinning the DHT engine's Results JSON and
// full query trace (hop attempts included — DHT hop counts are small),
// mirroring internal/core/golden_trace_test.go. Regenerate with
// `go test ./internal/dht -run Golden -update` after an intentional
// schema change.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenParams is a deliberately tiny fixed-seed run.
func goldenParams() Params {
	p := DefaultParams()
	p.NetworkSize = 64
	p.NumLookups = 20
	p.DeadFraction = 0.1
	p.LossProb = 0.05
	p.Seed = 42
	return p
}

func TestGoldenRun(t *testing.T) {
	var jsonl strings.Builder
	tw := obs.NewTraceWriter(&jsonl).Mask(obs.QueryEventMask)

	e, err := New(goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(tw)
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}

	checkGolden(t, "golden_results.json", marshal(t, res)+"\n")
	checkGolden(t, "golden_query_trace.jsonl", jsonl.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\ngot:  %q\nwant: %q\n(run with -update after intentional changes)",
					name, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s length changed: %d vs %d lines (run with -update after intentional changes)",
			name, len(gotLines), len(wantLines))
	}
}
