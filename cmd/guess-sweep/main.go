// Command guess-sweep runs experiment sweeps distributed across
// worker processes.
//
// One process coordinates: it decomposes the experiment into
// content-addressed work units, serves them to workers over TCP,
// assembles results in spec order, and renders the same tables
// guess-experiments does. Any number of processes work: they connect,
// execute units, and stream results back. The determinism guarantees
// make the output, metrics included, byte-identical to a
// single-process run.
//
// Examples:
//
//	# terminal 1: coordinate fig6 across at least two workers
//	guess-sweep -coordinate :9666 -experiment fig6 -min-workers 2
//
//	# terminals 2..N: contribute a worker each
//	guess-sweep -work host1:9666
//
//	# single-process smoke: 2 in-process workers over in-memory
//	# streams, checked byte-for-byte against the local path
//	guess-sweep -smoke
//
// A shared -cache-dir lets repeated or crashed-and-restarted sweeps
// skip every point a prior run already computed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/orchestrate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guess-sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("guess-sweep", flag.ContinueOnError)
	coordinate := fs.String("coordinate", "", "listen on this address and coordinate a sweep (e.g. :9666)")
	work := fs.String("work", "", "connect to a coordinator at this address and execute units")
	smoke := fs.Bool("smoke", false, "run a 2-worker in-process sweep and verify it matches the local path byte for byte")
	name := fs.String("name", "", "worker name reported to the coordinator (default: host:pid)")
	experiment := fs.String("experiment", "fig6", "experiment ID to coordinate (comma-separated, or \"all\")")
	scaleName := fs.String("scale", "quick", `fidelity: "quick" or "full" (paper scale)`)
	seed := fs.Uint64("seed", 1, "random seed")
	replications := fs.Int("replications", 1, "independently seeded runs pooled per sweep point")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	cacheDir := fs.String("cache-dir", "", "shared on-disk result cache; hits skip recomputation across runs")
	minWorkers := fs.Int("min-workers", 1, "wait for this many workers before dispatching")
	retries := fs.Int("retries", 0, "reassignments per unit after worker failure (0 = default 2, negative = none)")
	unitTimeout := fs.Duration("unit-timeout", 0, "per-unit worker deadline before reassignment (0 = default 2m)")
	metricsOut := fs.String("metrics-out", "", "write Prometheus-text sweep metrics at exit to this file (\"-\" = stdout)")
	quiet := fs.Bool("quiet", false, "suppress the progress dashboard")
	if err := fs.Parse(args); err != nil {
		return err
	}

	modes := 0
	for _, on := range []bool{*coordinate != "", *work != "", *smoke} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return errors.New("pick exactly one mode: -coordinate ADDR, -work ADDR, or -smoke")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *work != "":
		return runWorker(ctx, *work, *name)
	case *smoke:
		return runSmoke(ctx, *experiment, *quiet)
	}

	opts := experiments.Options{
		Seed:         *seed,
		Replications: *replications,
		Context:      ctx,
	}
	switch *scaleName {
	case "quick":
		opts.Scale = experiments.Quick
	case "full":
		opts.Scale = experiments.Full
	default:
		return fmt.Errorf("unknown -scale %q (want quick or full)", *scaleName)
	}

	cfg := orchestrate.Config{MaxRetries: *retries, UnitTimeout: *unitTimeout}
	if *cacheDir != "" {
		cache, err := orchestrate.NewDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = cache
	}
	if *metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
	}
	var dash *orchestrate.Dashboard
	if !*quiet {
		dash = orchestrate.NewDashboard(os.Stderr, stderrIsTerminal())
		cfg.Dashboard = dash
	}

	coord := orchestrate.New(cfg)
	defer coord.Close()
	lis, err := net.Listen("tcp", *coordinate)
	if err != nil {
		return err
	}
	defer lis.Close()
	go coord.Serve(lis)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "coordinating on %s; waiting for %d worker(s)\n", lis.Addr(), *minWorkers)
	}
	coord.WaitWorkers(*minWorkers)
	opts.Executor = coord

	err = runExperiments(*experiment, opts, *csvDir, *quiet, dash)
	dash.Finish()
	if err != nil {
		return err
	}
	if opts.Metrics != nil {
		if err := writeMetrics(*metricsOut, opts.Metrics); err != nil {
			return err
		}
	}
	if !*quiet {
		s := coord.Stats()
		fmt.Fprintf(os.Stderr, "done: %d units (%d executed, %d cached, %d deduped), %d reassigned\n",
			s.UnitsTotal, s.Executed, s.CacheHits, s.Deduped, s.Reassigned)
	}
	return nil
}

// runWorker connects to a coordinator and serves units until it hangs
// up or the context ends.
func runWorker(ctx context.Context, addr, name string) error {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "working for %s as %s\n", addr, name)
	if err := orchestrate.RunWorker(ctx, conn, name); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// runSmoke runs the experiment twice — in-process, and distributed
// over a 2-worker in-memory pool — and fails unless the rendered
// output and the guess_sim_* metrics text are byte-identical. CI's
// make sweep-smoke target runs this.
func runSmoke(ctx context.Context, experiment string, quiet bool) error {
	if experiment == "all" {
		experiment = "fig6"
	}
	ids := strings.Split(experiment, ",")
	pool, err := orchestrate.NewLocalPool(2, orchestrate.Config{})
	if err != nil {
		return err
	}
	defer pool.Close()
	for _, id := range ids {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		localTables, localMetrics, err := smokeRun(exp, experiments.Options{Scale: experiments.Quick, Context: ctx})
		if err != nil {
			return fmt.Errorf("%s local: %w", id, err)
		}
		distTables, distMetrics, err := smokeRun(exp, experiments.Options{Scale: experiments.Quick, Context: ctx, Executor: pool})
		if err != nil {
			return fmt.Errorf("%s distributed: %w", id, err)
		}
		if localTables != distTables {
			return fmt.Errorf("%s: 2-worker output differs from single-process output", id)
		}
		if localMetrics != distMetrics {
			return fmt.Errorf("%s: 2-worker metrics differ from single-process metrics", id)
		}
		s := pool.Stats()
		if s.Executed == 0 {
			return fmt.Errorf("%s: the worker pool executed no units", id)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "smoke %s: tables and metrics byte-identical across 2 workers (%d units executed)\n", id, s.Executed)
		}
	}
	fmt.Println("sweep smoke OK")
	return nil
}

// smokeRun runs one smoke leg and returns its rendered tables and
// metrics text.
func smokeRun(exp experiments.Experiment, opts experiments.Options) (tables, metrics string, err error) {
	opts.Metrics = obs.NewRegistry()
	res, err := exp.Run(opts)
	if err != nil {
		return "", "", err
	}
	var t, m strings.Builder
	if _, err := res.WriteTo(&t); err != nil {
		return "", "", err
	}
	if err := opts.Metrics.WritePrometheus(&m); err != nil {
		return "", "", err
	}
	return t.String(), m.String(), nil
}

// runExperiments coordinates each requested experiment and renders its
// tables to stdout.
func runExperiments(experiment string, opts experiments.Options, csvDir string, quiet bool, dash *orchestrate.Dashboard) error {
	ids := experiments.IDs()
	if experiment != "all" {
		ids = strings.Split(experiment, ",")
	}
	for _, id := range ids {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "== %s: %s (scale=%s)\n", id, exp.Title, opts.Scale)
		}
		start := time.Now()
		res, err := exp.Run(opts)
		if err != nil {
			return err
		}
		dash.Finish()
		if _, err := res.WriteTo(os.Stdout); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "== %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
		if csvDir != "" {
			if err := writeCSVs(csvDir, id, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetrics(dest string, reg *obs.Registry) error {
	out := os.Stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return reg.WritePrometheus(out)
}

func writeCSVs(dir, id string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		name := id
		if len(res.Tables) > 1 {
			name = fmt.Sprintf("%s_%d", id, i)
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stderrIsTerminal reports whether stderr looks like an interactive
// terminal (char device), selecting in-place dashboard redraws over
// append-only lines.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
