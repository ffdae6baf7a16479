package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place the end-to-end metrics'
// direction and regression bounds are written down.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from dir, the root of the repository.
func loadSpec(dir string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultSet is what one invocation of the full benchmark writes and
// what -compare reads.
type resultSet struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func writeResultSet(path string, rs *resultSet) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// values collects one metric's readings over a workload's untraced
// runs, in run order.
func (rs *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failFrac is failed / attempted over a workload's untraced runs.
func (rs *resultSet) failFrac(workload string) float64 {
	var attempted, failed int64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// digests maps seed to results digest for a workload's untraced runs.
func (rs *resultSet) digests(workload string) map[uint64]string {
	out := make(map[uint64]string)
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace && r.Digest != "" {
			out[r.Seed] = r.Digest
		}
	}
	return out
}

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worseBy(a, b []float64, better string) float64 {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0
	}
	if better == "higher" {
		return (ma - mb) / ma
	}
	return (mb - ma) / ma
}

// judge compares side b against side a on one metric. A spread wider
// than the bound on either side leaves the pair unresolved, unless
// every reading of b is better than every reading of a. gateSpread is
// false for setup_s: a few hundred microseconds of set-up spread by a
// third between processes, and the acceptance contract, too, holds
// set-up only to its median.
func judge(a, b []float64, better string, bound float64, gateSpread bool) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	if gateSpread && (spread(a) > bound || spread(b) > bound) {
		if allBetter(a, b, better) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worseBy(a, b, better) > bound {
		return verdictRegressed
	}
	return verdictOK
}

func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareSets prints, per workload and end-to-end metric, both sides'
// median and quartiles with a verdict, then the failure fractions and
// the digests. It returns how many pairs were not "ok".
func compareSets(w io.Writer, spec *benchSpec, a, b *resultSet) int {
	bad := 0
	fmt.Fprintf(w, "%-16s %-12s %-5s %38s %38s %8s  %s\n", "workload", "metric", "unit",
		"a: median [q1, q3] spread", "b: median [q1, q3] spread", "b worse", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			v := judge(va, vb, m.Better, m.Bound, m.Name != "setup_s")
			if v != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-12s %-5s %38s %38s %+7.1f%%  %s (bound %.0f%%)\n", wl.Name, m.Name, m.Unit,
				describe(va), describe(vb), 100*worseBy(va, vb, m.Better), v, 100*m.Bound)
		}
		fa, fb := a.failFrac(wl.Name), b.failFrac(wl.Name)
		v := verdictOK
		if fb > fa {
			v = verdictRegressed
			bad++
		}
		fmt.Fprintf(w, "%-16s %-12s %-5s %38.6f %38.6f %8s  %s (no increase)\n", wl.Name, "fail_frac", "frac", fa, fb, "", v)

		da, db := a.digests(wl.Name), b.digests(wl.Name)
		for seed, d := range da {
			if other, ok := db[seed]; ok && other != d {
				bad++
				fmt.Fprintf(w, "%-16s results_digest differs at seed %d: %s vs %s\n", wl.Name, seed, short(d), short(other))
			}
		}
	}
	return bad
}

func describe(vals []float64) string {
	if len(vals) == 0 {
		return "no runs"
	}
	q1, q2, q3 := quartiles(vals)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %4.1f%% n=%d", q2, q1, q3, 100*spread(vals), len(vals))
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// printSet prints every metric of a result set by name with its unit:
// the end-to-end metrics as median, quartiles and spread over the
// repetitions, then each traced run's per-layer metrics and self times
// next to the tracing overhead.
func printSet(w io.Writer, spec *benchSpec, rs *resultSet) {
	h := rs.Header
	fmt.Fprintf(w, "revision %s  %s  GOMAXPROCS=%d nproc=%d  %s\n", h.GitRevision, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel)
	fmt.Fprintf(w, "seed %d  %gs per run  %d repetitions  simrng.uint64_ns %.3f\n\n", h.Seed, h.Seconds, h.Reps, h.SimrngUint64NS)
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(w, "  %-14s %-5s %s\n", m.Name, m.Unit, describe(rs.values(wl.Name, m.Name)))
		}
		fmt.Fprintf(w, "  %-14s %-5s %.6f\n", "fail_frac", "frac", rs.failFrac(wl.Name))
		for _, r := range rs.Runs {
			if r.Workload != wl.Name {
				continue
			}
			for _, n := range r.Notes {
				fmt.Fprintf(w, "  note (seed %d): %s\n", r.Seed, n)
			}
			if !r.Trace {
				if r.Digest != "" {
					fmt.Fprintf(w, "  results_digest (seed %d) %s\n", r.Seed, r.Digest)
				}
				continue
			}
			fmt.Fprintf(w, "  traced run (seed %d):\n", r.Seed)
			if base := median(rs.values(wl.Name, "ops_per_s")); base > 0 {
				traced := r.Metrics["trace.ops_per_s"].Value
				fmt.Fprintf(w, "    %-34s %-6s %.4f  (untraced %.5g ops/s, traced %.5g)\n", "trace.overhead_frac", "frac", base/traced-1, base, traced)
			}
			for _, m := range spec.PerLayer {
				fmt.Fprintf(w, "    %-34s %-6s %.6g\n", m.Name, m.Unit, r.Metrics[m.Name].Value)
			}
			for _, name := range sortedKeys(r.SelfTimes) {
				a := r.SelfTimes[name]
				fmt.Fprintf(w, "    span %-29s n=%-8d total %10.3f ms  self %10.3f ms\n", name, a.Count, float64(a.TotalNS)/1e6, float64(a.SelfNS)/1e6)
			}
		}
		fmt.Fprintln(w)
	}
}

func sortedKeys(m map[string]spanAgg) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
