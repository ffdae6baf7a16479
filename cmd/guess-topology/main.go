// Command guess-topology generates Gnutella-style overlay topologies
// and reports the properties behind the paper's Section 3 comparison:
// degree distribution (power-law overlays have hubs), flood reach vs
// TTL, and the message amplification that makes flooding DoS-prone.
//
// Example:
//
//	guess-topology -nodes 1000 -kind powerlaw -m 3
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gnutella"
	"repro/internal/report"
	"repro/internal/simrng"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guess-topology:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("guess-topology", flag.ContinueOnError)
	nodes := fs.Int("nodes", 1000, "overlay size")
	kind := fs.String("kind", "powerlaw", `topology kind: "powerlaw" or "random"`)
	m := fs.Int("m", 3, "attachment edges per node (powerlaw) / half average degree (random)")
	maxTTL := fs.Int("max-ttl", 8, "largest TTL to evaluate")
	seed := fs.Uint64("seed", 1, "random seed")
	floods := fs.Int("floods", 50, "number of sampled flood origins per TTL")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := simrng.New(*seed)
	var (
		topo *gnutella.Topology
		err  error
	)
	switch *kind {
	case "powerlaw":
		topo, err = gnutella.NewPowerLaw(rng, *nodes, *m)
	case "random":
		topo, err = gnutella.NewRandom(rng, *nodes, 2**m)
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	if err != nil {
		return err
	}

	// Degree statistics.
	var deg stats.Online
	degrees := make([]float64, topo.NumNodes())
	maxDeg := 0
	for v := 0; v < topo.NumNodes(); v++ {
		d := topo.Degree(v)
		deg.Add(float64(d))
		degrees[v] = float64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	p50, err := stats.Quantile(degrees, 0.5)
	if err != nil {
		return err
	}
	p99, err := stats.Quantile(degrees, 0.99)
	if err != nil {
		return err
	}
	fmt.Printf("%s overlay: %d nodes, mean degree %.1f (median %.0f, p99 %.0f, max %d), degree Gini %.2f\n\n",
		*kind, topo.NumNodes(), deg.Mean(), p50, p99, maxDeg, stats.Gini(degrees))

	t := report.NewTable("Flood reach and message amplification vs TTL",
		"TTL", "AvgReached", "AvgMessages", "MsgsPerReached")
	var scratch gnutella.FloodScratch
	for ttl := 1; ttl <= *maxTTL; ttl++ {
		var reached, messages stats.Online
		for i := 0; i < *floods; i++ {
			origin := rng.Intn(topo.NumNodes())
			fl, err := topo.FloodWith(&scratch, origin, ttl)
			if err != nil {
				return err
			}
			reached.Add(float64(len(fl.Reached)))
			messages.Add(float64(fl.Messages))
		}
		ratio := 0.0
		if reached.Mean() > 0 {
			ratio = messages.Mean() / reached.Mean()
		}
		t.AddRow(ttl, reached.Mean(), messages.Mean(), ratio)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nMsgsPerReached > 1 is the duplicate traffic GUESS avoids by unicast probing.")
	return nil
}
