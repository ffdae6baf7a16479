package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTinySimulation(t *testing.T) {
	err := run([]string{
		"-network", "100", "-warmup", "20", "-measure", "80",
		"-query-rate", "0.05", "-query-pong", "MFS", "-cache-repl", "LFS",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadPolicy(t *testing.T) {
	if err := run([]string{"-query-probe", "Bogus"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run([]string{"-cache-repl", "Bogus"}); err == nil {
		t.Fatal("bad eviction accepted")
	}
	if err := run([]string{"-bad-pong", "Bogus", "-bad", "5"}); err == nil {
		t.Fatal("bad pong behavior accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-capacity", "-1"}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := run([]string{"-peers", "10"}); err == nil {
		t.Fatal("-peers accepted: the network size is -network")
	}
}

func TestDumpAndLoadConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")

	// Capture -dump-config output.
	old := os.Stdout
	f, err := os.Create(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	err = run([]string{"-dump-config", "-network", "123", "-query-pong", "MFS"})
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"NetworkSize": 123`) ||
		!strings.Contains(string(data), `"QueryPong": "MFS"`) {
		t.Fatalf("dumped config missing values:\n%s", data)
	}

	// Load it back, overriding one field, and re-dump.
	outPath := filepath.Join(dir, "out.json")
	f2, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f2
	err = run([]string{"-config", cfgPath, "-dump-config", "-cache", "44"})
	os.Stdout = old
	f2.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"NetworkSize": 123`, `"QueryPong": "MFS"`, `"CacheSize": 44`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("config round trip lost %s:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct{ cfg, want string }{
		{`{"CacheSzie": 5}`, "unknown field"},
		{`{"AdaptivePing": true}`, "unknown field"},
		{`{"CacheSize": 5} {}`, "data after"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("cfg%d.json", i))
		if err := os.WriteFile(path, []byte(c.cfg), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-config", path, "-dump-config"})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("config %s: got error %v, want one saying %q", c.cfg, err, c.want)
		}
	}
}

func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	err := run([]string{
		"-network", "100", "-warmup", "20", "-measure", "80",
		"-query-rate", "0.05", "-trace", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,births") {
		t.Fatalf("trace file malformed:\n%s", data)
	}
}

// TestProfileFlags checks that -cpuprofile and -memprofile each leave
// a non-empty profile behind, and that an unwritable CPU profile path
// fails before the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := run([]string{
		"-network", "100", "-warmup", "20", "-measure", "80",
		"-cpuprofile", cpu, "-memprofile", mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: no profile written (%v)", path, err)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")}); err == nil {
		t.Fatal("unwritable -cpuprofile accepted")
	}
}
