// Command guess-cluster runs the shed-state service behind cluster-wide
// fair admission: it aggregates the admission sketch of every
// guess-node that syncs to it, and recovers its aggregate from a
// snapshot after a crash.
//
// Run the service, with crash recovery:
//
//	guess-cluster -service 127.0.0.1:7100 -snapshot /var/tmp/agg.snap
//
// Nodes join the cluster view with guess-node -admission fair
// -state 127.0.0.1:7100.
//
// With -smoke the command runs a scripted three-node outage drill on an
// in-memory network — converge, kill the service, verify every node
// degrades to local-only shedding, restart, verify re-convergence — and
// exits nonzero if any posture fails. CI runs this as `make
// cluster-smoke`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"repro/node/cluster"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guess-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("guess-cluster", flag.ContinueOnError)
	serviceAddr := fs.String("service", "", "TCP address for the shed-state service")
	snapshot := fs.String("snapshot", "", "path for the service's aggregate snapshots, restored on startup")
	snapshotInterval := fs.Duration("snapshot-interval", 10*time.Second, "period between aggregate snapshots")
	window := fs.Duration("window", time.Second, "service aggregation window (match the nodes' admission window)")
	rotate := fs.Duration("rotate", 0, "salt epoch rotation period (0 = never)")
	smoke := fs.Bool("smoke", false, "run the scripted outage drill and exit (nonzero on failure)")
	verbose := fs.Bool("v", false, "verbose lifecycle logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		return runSmoke(*verbose)
	}
	if *serviceAddr == "" {
		return fmt.Errorf("nothing to run: set -service (or -smoke)")
	}

	logf := func(format string, a ...any) {}
	if *verbose {
		logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "guess-cluster: "+format+"\n", a...)
		}
	}
	ln, err := net.Listen("tcp", *serviceAddr)
	if err != nil {
		return err
	}
	svc, err := cluster.Serve(ln, cluster.ServiceConfig{
		Window:           *window,
		RotateEvery:      *rotate,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapshotInterval,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Printf("shed-state service on %v (epoch %d)\n", ln.Addr(), svc.Epoch())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Println("\nshutting down")
	return nil
}
