package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/simrng"
)

// header describes the box and the build a result set was measured on,
// so that two sets can be told apart — or normalised — before they are
// compared.
type header struct {
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Started     string `json:"started"`

	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Reps    int     `json:"reps"`
	// SimrngUint64NS is the calibration figure: the cost of one
	// simrng.Uint64 on this box, in nanoseconds.
	SimrngUint64NS float64 `json:"simrng_uint64_ns"`
	// Samples is the number of untraced runs behind each workload's
	// medians.
	Samples map[string]int `json:"samples"`
}

func newHeader(seed uint64, seconds float64, reps int) header {
	return header{
		GitRevision:    gitRevision("."),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		CPUModel:       cpuModel(),
		Started:        time.Now().UTC().Format(time.RFC3339),
		Seed:           seed,
		Seconds:        seconds,
		Reps:           reps,
		SimrngUint64NS: probeSimrng(simrng.New(seed), 4_000_000),
		Samples:        make(map[string]int),
	}
}

// gitRevision resolves HEAD by reading the repository's files under
// dir, so the harness starts no process for it. Outside a repository
// (the acceptance driver's checkout is a plain copy) it is "unknown".
func gitRevision(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.Open(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer packed.Close()
	sc := bufio.NewScanner(packed)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
