// Command bench is the repository's benchmark: five workloads that
// time the figure sweep, the 100k-peer run, one run of each protocol
// engine and the live node, end to end and layer by layer. It drives
// every layer from outside, through exported functions only.
//
//	go run ./bench                      all workloads, -reps runs each
//	go run ./bench -trace 1             ... plus one traced run each
//	go run ./bench -compare a.json b.json
//	go run ./bench -selfcheck           two sets of the same code must agree
//	go run ./bench -workload families -seed 1 -seconds 10 -trace 0
//
// The last form is one run of one workload in this process: it is what
// BENCHMARK.json's command invokes, and what the other forms start as
// child processes, so that each run's peak memory and process-wide
// caches are its own. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is the parsed command line.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	quick     bool
	reps      int
	outDir    string
	out       string
	detail    string
	compare   bool
	selfcheck bool
	args      []string
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run this one workload once, in this process, and print its result line")
	fs.Uint64Var(&c.seed, "seed", 1, "seed of the generated inputs (repetition i uses seed+i)")
	fs.Float64Var(&c.seconds, "seconds", 10, "how long one run measures")
	fs.IntVar(&c.trace, "trace", 0, "1: record spans and report the per-layer metrics")
	fs.BoolVar(&c.quick, "quick", false, "toy sizes: exercises the harness, measures nothing")
	fs.IntVar(&c.reps, "reps", 5, "untraced runs of each workload")
	fs.StringVar(&c.outDir, "outdir", filepath.Join("bench", "out"), "directory for result and span files")
	fs.StringVar(&c.out, "out", "", "result set file (default <outdir>/result.json)")
	fs.StringVar(&c.detail, "detail", "", "with -workload: also write the full run record to this file")
	fs.BoolVar(&c.compare, "compare", false, "compare two result set files: -compare a.json b.json")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "run two full sets of this code and require them to agree")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.args = fs.Args()
	switch {
	case c.trace != 0 && c.trace != 1:
		return nil, fmt.Errorf("-trace takes 0 or 1, got %d", c.trace)
	case c.seconds <= 0:
		return nil, fmt.Errorf("-seconds must be positive, got %v", c.seconds)
	case c.reps < 1:
		return nil, fmt.Errorf("-reps must be at least 1, got %d", c.reps)
	case c.compare && len(c.args) != 2:
		return nil, errors.New("-compare takes two result set files")
	case !c.compare && len(c.args) != 0:
		return nil, fmt.Errorf("unexpected arguments %q", c.args)
	}
	if c.out == "" {
		c.out = filepath.Join(c.outDir, "result.json")
	}
	return c, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	switch {
	case c.workload != "":
		err = runOne(ctx, c, stdout)
	case c.compare:
		err = runCompare(c, stdout)
	case c.selfcheck:
		err = runSelfcheck(ctx, c, stdout, stderr)
	default:
		err = runAll(ctx, c, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line of a single run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne is one run of one workload in this process. The verdict is in
// the result line; the exit code says only whether there is one.
func runOne(ctx context.Context, c *config, stdout io.Writer) error {
	w, ok := lookupWorkload(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	r, err := runWorkload(ctx, w, runOpts{seed: c.seed, seconds: c.seconds, trace: c.trace == 1, quick: c.quick, outDir: c.outDir})
	if err != nil {
		return err
	}
	if c.detail != "" {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.detail, b, 0o644); err != nil {
			return err
		}
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%s seed=%d seconds=%g trace=%d\n", r.Workload, r.Seed, r.Seconds, c.trace)
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-34s %-6s %v\n", d.Name, d.Unit, r.Metrics[d.Name].Value)
	}
	if r.Digest != "" {
		fmt.Fprintf(stdout, "  results_digest %s\n", r.Digest)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	line, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runChild runs one workload once in a fresh process of this binary
// and reads its full record back.
func runChild(ctx context.Context, c *config, workload string, seed uint64, trace bool, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	detail := filepath.Join(c.outDir, "run-"+workload+".json")
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", traceArg,
		"-outdir", c.outDir,
		"-detail", detail,
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, traceArg, err)
	}
	b, err := os.ReadFile(detail)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(detail); err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	return &r, nil
}

// runSet runs every workload -reps times untraced (repetition i on
// seed+i), then once traced if asked.
func runSet(ctx context.Context, c *config, spec *benchSpec, stderr io.Writer) (*resultSet, error) {
	rs := &resultSet{Header: newHeader(c.seed, c.seconds, c.reps)}
	for _, wl := range spec.Workloads {
		for i := 0; i < c.reps; i++ {
			fmt.Fprintf(stderr, "bench: %s run %d/%d\n", wl.Name, i+1, c.reps)
			r, err := runChild(ctx, c, wl.Name, c.seed+uint64(i), false, stderr)
			if err != nil {
				return nil, err
			}
			rs.Runs = append(rs.Runs, r)
			rs.Header.Samples[wl.Name]++
		}
		if c.trace == 1 {
			fmt.Fprintf(stderr, "bench: %s traced run\n", wl.Name)
			r, err := runChild(ctx, c, wl.Name, c.seed, true, stderr)
			if err != nil {
				return nil, err
			}
			rs.Runs = append(rs.Runs, r)
		}
	}
	return rs, nil
}

// failedChecks sums the failed output checks of a set.
func failedChecks(rs *resultSet) int64 {
	var n int64
	for _, r := range rs.Runs {
		n += r.Failed
	}
	return n
}

func runAll(ctx context.Context, c *config, stdout, stderr io.Writer) error {
	spec, err := loadSpec(".")
	if err != nil {
		return err
	}
	rs, err := runSet(ctx, c, spec, stderr)
	if err != nil {
		return err
	}
	printSet(stdout, spec, rs)
	if err := writeResultSet(c.out, rs); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result set written to %s\n", c.out)
	if n := failedChecks(rs); n > 0 {
		return fmt.Errorf("%d output checks failed", n)
	}
	return nil
}

func runCompare(c *config, stdout io.Writer) error {
	spec, err := loadSpec(".")
	if err != nil {
		return err
	}
	a, err := readResultSet(c.args[0])
	if err != nil {
		return err
	}
	b, err := readResultSet(c.args[1])
	if err != nil {
		return err
	}
	if bad := compareSets(stdout, spec, a, b); bad > 0 {
		return fmt.Errorf("%d comparisons are not ok", bad)
	}
	return nil
}

// runSelfcheck measures the same code twice on the same seeds. The
// benchmark is fit to judge a change only if it then calls every pair
// ok and every digest equal.
func runSelfcheck(ctx context.Context, c *config, stdout, stderr io.Writer) error {
	spec, err := loadSpec(".")
	if err != nil {
		return err
	}
	var sets [2]*resultSet
	for i := range sets {
		fmt.Fprintf(stderr, "bench: selfcheck set %d/2\n", i+1)
		sets[i], err = runSet(ctx, c, spec, stderr)
		if err != nil {
			return err
		}
		path := filepath.Join(c.outDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i))
		if err := writeResultSet(path, sets[i]); err != nil {
			return err
		}
	}
	bad := compareSets(stdout, spec, sets[0], sets[1])
	failed := failedChecks(sets[0]) + failedChecks(sets[1])
	if bad > 0 || failed > 0 {
		return fmt.Errorf("selfcheck failed: %d comparisons not ok, %d output checks failed", bad, failed)
	}
	fmt.Fprintln(stdout, "selfcheck passed: every pair ok, every digest equal, no failed checks")
	return nil
}
