package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {1000, 99}, {10_000, 99.9}, {2_000_000, 99.999}} {
		p, v := tailPercentile(ramp(c.n))
		if p != c.wantP {
			t.Errorf("tailPercentile(n=%d) chose p%v, want p%v", c.n, p, c.wantP)
		}
		if p > 0 && float64(c.n)-v < 10 {
			t.Errorf("tailPercentile(n=%d): only %v samples beyond p%v", c.n, float64(c.n)-v, p)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) prints, since the acceptance driver
// computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7, 9, 11, 100}, [3]float64{6, 9, 55.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45},
		{ID: 6, Name: "parent", Start: 200, End: 260}, // childless
	}
	got := selfTimes(spans)
	want := map[string]spanAgg{
		"parent": {Count: 2, TotalNS: 160, SelfNS: 50 + 60}, // 100 - (10..50) - (90..100)
		"child":  {Count: 3, TotalNS: 20 + 30 + 30, SelfNS: 20 + 10 + 30},
		"leaf":   {Count: 1, TotalNS: 20, SelfNS: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	s := tr.start("x", 0, 0)
	s.end()
	tr.record("y", 1, time.Now(), time.Now())
	if spans, dropped := tr.snapshot(); spans != nil || dropped != 0 || s.id() != 0 {
		t.Errorf("nil tracer recorded something: %v %d %d", spans, dropped, s.id())
	}
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	a := genFleet(7, 64, 40, 20, 2, 512)
	if b := genFleet(7, 64, 40, 20, 2, 512); !reflect.DeepEqual(a, b) {
		t.Error("genFleet gave different inputs for the same seed")
	}
	if b := genFleet(8, 64, 40, 20, 2, 512); reflect.DeepEqual(a.Libraries, b.Libraries) || reflect.DeepEqual(a.Streams, b.Streams) {
		t.Error("genFleet ignores its seed")
	}
	holders := make(map[string]int)
	for n, lib := range a.Libraries {
		if len(lib) == 0 {
			t.Errorf("node %d shares nothing", n)
		}
		for _, f := range lib {
			holders[strings.TrimSuffix(f, ".dat")]++
		}
	}
	for _, k := range a.Keywords {
		if holders[k] < 2 {
			t.Errorf("item %s is on %d nodes, want >= 2 so that a query for it can be answered", k, holders[k])
		}
	}
	for n, peers := range a.Bootstrap {
		if len(peers) != 20 {
			t.Errorf("node %d has %d bootstrap peers, want 20", n, len(peers))
		}
		for _, p := range peers {
			if p == n {
				t.Errorf("node %d bootstraps from itself", n)
			}
		}
	}
	for _, s := range a.Streams {
		for _, q := range s {
			if q.Origin < 0 || q.Origin >= 64 || q.Item < 0 || q.Item >= 40 {
				t.Fatalf("request %+v out of range", q)
			}
		}
	}

	c := genCrowd(7, 4, 16, 40*time.Millisecond)
	if d := genCrowd(7, 4, 16, 40*time.Millisecond); !reflect.DeepEqual(c, d) {
		t.Error("genCrowd gave different inputs for the same seed")
	}
	if d := genCrowd(8, 4, 16, 40*time.Millisecond); reflect.DeepEqual(c.LightPhase, d.LightPhase) {
		t.Error("genCrowd ignores its seed")
	}
	for i, ph := range c.LightPhase {
		if ph < 0 || ph >= 40*time.Millisecond || c.LightHome[i] != i%4 {
			t.Errorf("light requester %d: phase %v home %d", i, ph, c.LightHome[i])
		}
	}
}

func TestResultSetRoundTripsThroughJSON(t *testing.T) {
	r := newRunResult("families", runOpts{seed: 3, seconds: 10})
	r.set("setup_s", 0.25)
	r.set("core.events", 1) // not an end-to-end name: dropped from an untraced run
	r.check(true, "fine")
	r.check(false, "law %d broken", 2)
	if err := r.digestJSON(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	r.Samples["engine_runs"] = 4
	r.SelfTimes = map[string]spanAgg{"core.Run": {Count: 1, TotalNS: 5, SelfNS: 5}}
	if _, ok := r.Metrics["core.events"]; ok || r.Attempted != 2 || r.Failed != 1 || len(r.Notes) != 1 || r.Digest == "" {
		t.Fatalf("unexpected record: %+v", r)
	}
	in := &resultSet{Header: newHeader(3, 10, 5), Runs: []*runResult{r}}
	in.Header.Samples["families"] = 1
	path := filepath.Join(t.TempDir(), "sub", "set.json")
	if err := writeResultSet(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(in)
	b, _ := json.Marshal(out)
	if !bytes.Equal(a, b) {
		t.Errorf("result set changed in the round trip:\n in  %s\n out %s", a, b)
	}
	if out.Header.GoVersion == "" || out.Header.NumCPU < 1 || out.Header.SimrngUint64NS <= 0 {
		t.Errorf("header not filled in: %+v", out.Header)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"slower time", steady, []float64{120, 121, 119, 120, 120}, "lower", verdictRegressed},
		{"faster time", steady, []float64{80, 81, 79, 80, 80}, "lower", verdictOK},
		{"lower rate", steady, []float64{80, 81, 79, 80, 80}, "higher", verdictRegressed},
		{"within bound", steady, []float64{108, 109, 107, 108, 108}, "lower", verdictOK},
		{"noisy", steady, []float64{60, 140, 100, 80, 120}, "lower", verdictUnresolved},
		{"noisy but every run better", []float64{200, 300, 250, 220, 280}, steady, "lower", verdictOK},
		{"missing side", steady, nil, "lower", verdictUnresolved},
	} {
		if got := judge(c.a, c.b, c.better, 0.10, true); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(steady, []float64{60, 140, 100, 80, 120}, "lower", 0.10, false); got != verdictOK {
		t.Errorf("spread not gated, equal medians: judge = %s, want ok", got)
	}
}

func TestCompareFlagsDigestAndFailures(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	set := func(digest string, failed int64) *resultSet {
		rs := &resultSet{}
		for _, wl := range spec.Workloads {
			for i := 0; i < 3; i++ {
				r := newRunResult(wl.Name, runOpts{seed: uint64(i)})
				for _, m := range spec.EndToEnd {
					r.set(m.Name, 100+float64(i))
				}
				r.Attempted, r.Failed, r.Digest = 10, failed, digest
				rs.Runs = append(rs.Runs, r)
			}
		}
		return rs
	}
	var out bytes.Buffer
	if bad := compareSets(&out, spec, set("d1", 0), set("d1", 0)); bad != 0 {
		t.Errorf("identical sets: %d comparisons not ok\n%s", bad, out.String())
	}
	// Every workload: one fail_frac increase and three digest mismatches.
	if bad := compareSets(&out, spec, set("d1", 0), set("d2", 1)); bad != 4*len(spec.Workloads) {
		t.Errorf("changed digest and new failures: %d comparisons not ok, want %d", bad, 4*len(spec.Workloads))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness
// in step: same workloads, same metric names and units, in order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q: bad name, duplicate, or why over 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	match := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.Name || m.Unit != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, m.Name, m.Unit, d.Name, d.Unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: bad or duplicate name, or better=%q", kind, m.Name, m.Better)
			}
			seen[m.Name] = true
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, true)
	match("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(spec.PerLayer))
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s (lower is better) must be an end-to-end metric")
	}
	for _, m := range spec.EndToEnd[1:] {
		if m.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
}

// TestQuickSmoke drives every workload at toy size, untraced and
// traced, through the command line the acceptance driver uses, and
// checks the shape of what comes back. The numbers mean nothing at this
// size; the point is that no part of the harness can rot unnoticed.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				outDir := t.TempDir()
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "0.2", "--trace", trace, "-quick", "-outdir", outDir}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var keys map[string]json.RawMessage
				var line resultLine
				last := []byte(lines[len(lines)-1])
				if err := json.Unmarshal(last, &keys); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, last)
				}
				if err := json.Unmarshal(last, &line); err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 || line.Attempted < 1 {
					t.Errorf("result line has keys %v, attempted %d", keys, line.Attempted)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
						t.Errorf("metric %s: %+v (present %v)", d.Name, m, ok)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				// The simulations are deterministic, so their checks must
				// hold on any box. The node workloads' checks depend on
				// replies arriving in time, which a loaded test machine
				// does not promise; they are reported, not required.
				if strings.HasPrefix(w.Name, "node-") {
					if !line.Correct {
						t.Logf("%d of %d operations failed on this box:\n%s", line.Failed, line.Attempted, stdout.String())
					}
				} else if !line.Correct || line.Failed != 0 {
					t.Errorf("failed checks:\n%s", stdout.String())
				}
				if trace == "1" {
					spans, err := filepath.Glob(filepath.Join(outDir, "trace-"+w.Name+".jsonl"))
					if err != nil || len(spans) != 1 {
						t.Errorf("no span file in %s", outDir)
					}
					if line.Metrics["trace.spans"].Value < 1 || line.Metrics["simrng.uint64_ns"].Value <= 0 {
						t.Errorf("traced run recorded no spans or ran no probes")
					}
				}
			})
		}
	}
}

func TestRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-reps", "0"},
		{"-compare", "one.json"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want failure and no result", args, code, stdout.String())
		}
	}
}
