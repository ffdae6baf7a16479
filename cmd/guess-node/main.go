// Command guess-node runs a live GUESS peer speaking the UDP wire
// protocol: it shares files, maintains its link cache with pings,
// answers queries from other peers, and can issue queries of its own.
//
// Start a small network in three terminals:
//
//	guess-node -listen 127.0.0.1:7001 -files "free bird.mp3,stairway.ogg"
//	guess-node -listen 127.0.0.1:7002 -bootstrap 127.0.0.1:7001
//	guess-node -listen 127.0.0.1:7003 -bootstrap 127.0.0.1:7001 \
//	    -query "free bird" -desired 1
//
// Without -query the node runs as a daemon until interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"time"

	guess "repro"
	"repro/node"
	"repro/node/cluster"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guess-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	def := node.Default()
	fs := flag.NewFlagSet("guess-node", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "UDP address to bind")
	filesFlag := fs.String("files", "", "comma-separated file names to share")
	bootstrapFlag := fs.String("bootstrap", "", "comma-separated peer addresses to seed the cache")
	cacheSize := fs.Int("cache", def.CacheSize, "link cache capacity")
	pingInterval := fs.Duration("ping-interval", def.PingInterval, "cache maintenance period")
	probeTimeout := fs.Duration("probe-timeout", def.ProbeTimeout, "probe reply timeout")
	attempts := fs.Int("probe-attempts", def.MaxProbeAttempts, "transmissions per probe before a peer is presumed dead (1 = single-shot)")
	backoff := fs.Duration("retry-backoff", def.RetryBackoff, "pause before the first retransmission (doubles per attempt)")
	adaptive := fs.Bool("adaptive-timeout", false, "derive per-attempt deadlines from an RTT EWMA")
	busyBackoff := fs.Duration("busy-backoff", 0, "suppress Busy peers instead of evicting them (0 = evict on first Busy)")
	capacity := fs.Int("capacity", 0, "max probes/second served (0 = unlimited)")
	admission := fs.String("admission", "flat", "overload controller: flat (paper's window) or fair (shed heaviest requesters first)")
	breaker := fs.Int("breaker", 0, "consecutive probe timeouts that open a peer's circuit breaker (0 = evict on first timed-out probe)")
	breakerCooldown := fs.Duration("breaker-cooldown", def.BreakerCooldown, "open-breaker suppression before the half-open trial")
	drainTimeout := fs.Duration("drain-timeout", 0, "graceful drain window on shutdown (0 = close immediately)")
	snapshot := fs.String("snapshot", "", "path for periodic link-cache snapshots, restored on startup (empty = disabled)")
	snapshotInterval := fs.Duration("snapshot-interval", def.SnapshotInterval, "period between link-cache snapshots")
	stateAddr := fs.String("state", "", "TCP address of the cluster shed-state service (empty = standalone; requires -admission fair)")
	stateInterval := fs.Duration("state-interval", time.Second, "push/pull period against -state")
	nodeName := fs.String("node-name", "", "stable name for -state sequence tracking (default: the bound address)")
	queryProbe := def.QueryProbe
	fs.TextVar(&queryProbe, "query-probe", queryProbe, "QueryProbe policy")
	queryFlag := fs.String("query", "", "run one query and exit")
	desired := fs.Int("desired", 1, "results wanted for -query")
	wait := fs.Duration("gossip-wait", 2*time.Second, "time to gossip before -query runs")
	metricsAddr := fs.String("metrics", "", "HTTP address serving /metrics (Prometheus text) and /metrics.json (empty = disabled)")
	verbose := fs.Bool("v", false, "verbose protocol logging")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var admissionMode node.AdmissionMode
	switch strings.ToLower(strings.TrimSpace(*admission)) {
	case "", "flat":
		admissionMode = node.AdmissionFlat
	case "fair":
		admissionMode = node.AdmissionFair
	default:
		return fmt.Errorf("bad -admission %q: want flat or fair", *admission)
	}
	reg := guess.NewMetricsRegistry()
	cfg := node.Config{
		CacheSize:          *cacheSize,
		PingInterval:       *pingInterval,
		ProbeTimeout:       *probeTimeout,
		MaxProbeAttempts:   *attempts,
		RetryBackoff:       *backoff,
		AdaptiveTimeout:    *adaptive,
		BusyBackoff:        *busyBackoff,
		MaxProbesPerSecond: *capacity,
		Admission:          admissionMode,
		BreakerThreshold:   *breaker,
		BreakerCooldown:    *breakerCooldown,
		DrainTimeout:       *drainTimeout,
		SnapshotPath:       *snapshot,
		SnapshotInterval:   *snapshotInterval,
		QueryProbe:         queryProbe,
		Metrics:            reg,
	}
	if *filesFlag != "" {
		for _, f := range strings.Split(*filesFlag, ",") {
			if f = strings.TrimSpace(f); f != "" {
				cfg.Files = append(cfg.Files, f)
			}
		}
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "node: "+format+"\n", args...)
		}
	}

	if *stateAddr != "" && admissionMode != node.AdmissionFair {
		return errors.New("-state needs -admission fair (the shed-state service syncs the fair sketch)")
	}
	// The period also bounds each dial to -state: zero would dial with
	// no timeout, a negative value with one already expired.
	if *stateInterval <= 0 {
		return fmt.Errorf("bad -state-interval %v: want a positive period", *stateInterval)
	}

	n, err := node.Listen(*listen, cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Printf("guess-node listening on %v, sharing %d files\n", n.Addr(), n.NumFiles())

	// The cluster sync client: push local admission deltas to the
	// shed-state service, pull the merged aggregate. The node keeps
	// serving on local-only shedding whenever the service is
	// unreachable, so a dead -state address degrades rather than fails.
	var stateSync *cluster.SyncClient
	if *stateAddr != "" {
		name := *nodeName
		if name == "" {
			name = n.Addr().String()
		}
		stateSync, err = cluster.NewSyncClient(n, cluster.ClientConfig{
			Name:     name,
			Dial:     func() (net.Conn, error) { return net.DialTimeout("tcp", *stateAddr, *stateInterval) },
			Interval: *stateInterval,
			Metrics:  reg,
		})
		if err != nil {
			return err
		}
		defer stateSync.Close()
		fmt.Printf("state sync to %s as %q every %v\n", *stateAddr, name, *stateInterval)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				fmt.Fprintln(os.Stderr, "guess-node: /metrics:", err)
			}
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				fmt.Fprintln(os.Stderr, "guess-node: /metrics.json:", err)
			}
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			status, code := "ok", http.StatusOK
			if n.Draining() {
				// 503 tells load balancers and peers to stop routing
				// here while the drain finishes.
				status, code = "draining", http.StatusServiceUnavailable
			}
			w.WriteHeader(code)
			// Cluster fields appear only when -state is set: how stale
			// the merged aggregate is, whether the node is shedding on
			// local evidence alone, and which salt epoch it hashes under.
			clusterFields := ""
			if stateSync != nil {
				st := stateSync.Status()
				age := -1.0 // no aggregate pulled yet
				if !st.LastPull.IsZero() {
					age = time.Since(st.LastPull).Seconds()
				}
				clusterFields = fmt.Sprintf(`,"last_pull_age_seconds":%.3f,"local_fallback":%v,"salt_epoch":%d`,
					age, st.Fallback, st.Epoch)
			}
			fmt.Fprintf(w, `{"status":%q,"uptime_seconds":%.3f,"cache_entries":%d,"suspects_pending":%d%s}`+"\n",
				status, n.Uptime().Seconds(), n.CacheLen(), n.Suspects(), clusterFields)
		})
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "guess-node: metrics server:", err)
			}
		}()
		// Drain the node while /healthz can still answer 503 (Close is
		// idempotent, so the earlier deferred Close is a no-op).
		defer func() {
			n.Close()
			srv.Close()
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
	}

	if *bootstrapFlag != "" {
		for _, a := range strings.Split(*bootstrapFlag, ",") {
			addr, err := netip.ParseAddrPort(strings.TrimSpace(a))
			if err != nil {
				return fmt.Errorf("bad -bootstrap address %q: %w", a, err)
			}
			ok, err := n.PingPeer(ctx, addr)
			if err != nil {
				return err
			}
			n.AddPeer(addr, 0)
			fmt.Printf("bootstrap %v: alive=%v\n", addr, ok)
		}
	}

	if *queryFlag != "" {
		// Give ping/pong gossip a moment to populate the cache.
		select {
		case <-time.After(*wait):
		case <-ctx.Done():
			return nil
		}
		start := time.Now()
		hits, stats, err := n.Query(ctx, *queryFlag, *desired)
		if err != nil {
			return err
		}
		fmt.Printf("query %q: %d hits in %v (%d probes: %d good, %d dead, %d refused, %d retries)\n",
			*queryFlag, len(hits), time.Since(start).Round(time.Millisecond),
			stats.Probes, stats.Good, stats.Dead, stats.Refused, stats.Retries)
		for _, h := range hits {
			fmt.Printf("  %q from %v\n", h.Name, h.From)
		}
		return nil
	}

	// Daemon mode: report stats periodically until interrupted.
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			s := n.Stats()
			fmt.Printf("cache %d entries | pings sent %d recv %d | queries served %d | refused %d | evicted %d | retries %d | busy-backoffs %d | late %d dup %d\n",
				n.CacheLen(), s.PingsSent, s.PingsReceived, s.QueriesServed,
				s.ProbesRefused, s.DeadEvictions, s.Retries, s.BusyBackoffs,
				s.LateReplies, s.DupReplies)
		}
	}
}
