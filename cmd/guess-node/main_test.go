package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/node"
)

func TestRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-query-probe", "Bogus"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run([]string{"-admission", "bogus", "-query", "x"}); err == nil {
		t.Fatal("bad admission mode accepted")
	}
	if err := run([]string{"-breaker", "-1", "-query", "x"}); err == nil {
		t.Fatal("negative breaker threshold accepted")
	}
	if err := run([]string{"-capacity", "-5", "-query", "x"}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := run([]string{"-bootstrap", "not-an-addr", "-query", "x"}); err == nil {
		t.Fatal("bad bootstrap address accepted")
	}
	if err := run([]string{"-admission", "fair", "-state", "127.0.0.1:1", "-state-interval", "0", "-query", "x", "-gossip-wait", "0"}); err == nil {
		t.Fatal("zero -state-interval accepted")
	}
	if err := run([]string{"-listen", "256.0.0.1:99999"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestQueryAgainstLivePeer(t *testing.T) {
	sharer, err := node.Listen("127.0.0.1:0", node.Config{
		Files: []string{"wanted song.mp3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharer.Close()

	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-bootstrap", sharer.Addr().String(),
		"-query", "wanted song",
		"-gossip-wait", "100ms",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewFlagsAcceptedInQueryMode exercises the overload/recovery
// flags end to end through one query run.
func TestNewFlagsAcceptedInQueryMode(t *testing.T) {
	sharer, err := node.Listen("127.0.0.1:0", node.Config{
		Files: []string{"resilient.tar"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharer.Close()

	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-bootstrap", sharer.Addr().String(),
		"-admission", "fair",
		"-capacity", "50",
		"-breaker", "3",
		"-breaker-cooldown", "500ms",
		"-retry-backoff", "2s",
		"-busy-backoff", "10s",
		"-drain-timeout", "50ms",
		"-snapshot", filepath.Join(t.TempDir(), "cache.snap"),
		"-snapshot-interval", "10s",
		"-query", "resilient",
		"-gossip-wait", "100ms",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// freePort reserves a loopback TCP port for the metrics server.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestHealthzEndpoint: /healthz serves 200 with uptime and cache state
// on a live daemon.
func TestHealthzEndpoint(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		// Query mode keeps the run bounded; gossip-wait gives the test
		// a window to scrape /healthz while the node is alive.
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-metrics", addr,
			"-query", "anything",
			"-gossip-wait", "2s",
		})
	}()

	var body struct {
		Status          string  `json:"status"`
		UptimeSeconds   float64 `json:"uptime_seconds"`
		CacheEntries    int     `json:"cache_entries"`
		SuspectsPending int     `json:"suspects_pending"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz status %d, want 200", resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("metrics server never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if body.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", body.Status)
	}
	if body.UptimeSeconds < 0 || body.CacheEntries != 0 || body.SuspectsPending != 0 {
		t.Fatalf("healthz body %+v", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
