// Command guess-experiments regenerates the paper's tables and figures.
//
// Examples:
//
//	guess-experiments -list
//	guess-experiments -experiment fig10
//	guess-experiments -experiment all -scale full -csv out/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guess-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("guess-experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	experiment := fs.String("experiment", "all", `experiment ID ("table3", "fig3".."fig21", or "all")`)
	scaleName := fs.String("scale", "quick", `fidelity: "quick" or "full" (paper scale)`)
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "max concurrent simulations (0 = all cores)")
	replications := fs.Int("replications", 1, "independently seeded runs pooled per sweep point")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	svgDir := fs.String("svg", "", "also render each figure chart as SVG into this directory")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	traceQueries := fs.String("trace-queries", "", "write a JSONL per-query event trace of every run to this file")
	metricsOut := fs.String("metrics-out", "", "write aggregate Prometheus-text metrics at exit to this file (\"-\" = stdout)")
	prof := profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := prof.Start("guess-experiments")
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-8s %s\n", id, title)
		}
		return nil
	}

	// SIGINT cancels the sweep: no further runs are scheduled and
	// in-flight simulations stop at their next event batch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{
		Seed:         *seed,
		Parallelism:  *parallel,
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
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *traceQueries != "" {
		f, err := os.Create(*traceQueries)
		if err != nil {
			return err
		}
		defer f.Close()
		tw := obs.NewTraceWriter(f).Mask(obs.QueryEventMask)
		defer func() {
			if err := tw.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "guess-experiments: -trace-queries:", err)
			}
		}()
		opts.Observer = tw
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		defer func() {
			out := os.Stdout
			if *metricsOut != "-" {
				f, err := os.Create(*metricsOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, "guess-experiments: -metrics-out:", err)
					return
				}
				defer f.Close()
				out = f
			}
			if err := reg.WritePrometheus(out); err != nil {
				fmt.Fprintln(os.Stderr, "guess-experiments: -metrics-out:", err)
			}
		}()
	}

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s: %s (scale=%s)\n", id, exp.Title, opts.Scale)
		}
		start := time.Now()
		res, err := exp.Run(opts)
		if err != nil {
			return err
		}
		if _, err := res.WriteTo(os.Stdout); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, id, res); err != nil {
				return err
			}
		}
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, id, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSVGs(dir, id string, res *experiments.Result) error {
	if len(res.Charts) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, c := range res.Charts {
		name := id
		if len(res.Charts) > 1 {
			name = fmt.Sprintf("%s_%d", id, i)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".svg"), []byte(c.SVG(720, 440)), 0o644); err != nil {
			return err
		}
	}
	return nil
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
