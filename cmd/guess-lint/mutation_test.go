package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// An edit seeds a defect into the copy of one module file.
type edit struct {
	file     string // module-relative path
	old, new string // replace old (which must occur once) by new; old == "" creates file with contents new
}

// mutations are realistic defects, one per analyzer plus two that only
// a whole-program run catches (a taint source in another package, and a
// stale suppression). Each must yield exactly the listed findings, all
// inside an edited file.
var mutations = []struct {
	name  string
	pkgs  []string // module-relative package directories, imported packages first
	edits []edit
	want  []string // analyzer of each expected finding, in position order
}{
	{
		name: "detrand/wall-clock-helper",
		pkgs: []string{"internal/policy"},
		edits: []edit{{file: "internal/policy/mutation.go", new: `package policy

import "time"

func stamp() time.Time { return time.Now() }
`}},
		want: []string{"detrand"},
	},
	{
		name: "maporder/unsorted-keys",
		pkgs: []string{"internal/core"},
		edits: []edit{{file: "internal/core/mutation.go", new: `package core

func keysOf(set map[int32]bool) []int32 {
	var out []int32
	for id := range set {
		out = append(out, id)
	}
	return out
}
`}},
		want: []string{"maporder"},
	},
	{
		name: "atomicfield/store-function",
		pkgs: []string{"node"},
		edits: []edit{{file: "node/mutation.go", new: `package node

import "sync/atomic"

func (n *Node) storeSalt(s uint64) { atomic.StoreUint64(&n.keySalt, s) }
`}},
		want: []string{"atomicfield"},
	},
	{
		name: "lockguard/unlocked-rtt",
		pkgs: []string{"node"},
		edits: []edit{{file: "node/mutation.go", new: `package node

func (n *Node) ResetRTT() { n.srtt, n.rttvar = 0, 0 }

func (n *Node) SRTT() float64 { return n.srtt }
`}},
		want: []string{"lockguard", "lockguard", "lockguard"},
	},
	{
		name: "goroexit/poller",
		pkgs: []string{"node"},
		edits: []edit{{file: "node/mutation.go", new: `package node

import "time"

func (n *Node) pollStats() {
	go func() {
		for {
			time.Sleep(time.Second)
			_ = n.Stats()
		}
	}()
}
`}},
		want: []string{"goroexit"},
	},
	{
		name: "wirebound/unchecked-frame",
		pkgs: []string{"internal/frame"},
		edits: []edit{{file: "internal/frame/frame.go", old: `	if int64(n) > int64(max) {
		return nil, ErrTooLarge
	}
`}},
		want: []string{"wirebound"},
	},
	{
		name: "rngstream/dynamic-name",
		pkgs: []string{"internal/core"},
		edits: []edit{{file: "internal/core/engine.go",
			old: "\troot := simrng.New(params.Seed)\n",
			new: "\troot := simrng.New(params.Seed)\n\t_ = root.Stream(params.QueryProbe.String())\n"}},
		want: []string{"rngstream"},
	},
	{
		name: "obsname/undocumented",
		pkgs: []string{"internal/obs"},
		edits: []edit{{file: "internal/obs/cluster.go",
			old: `"guess_node_cluster_syncs_total"`,
			new: `"guess_node_cluster_sync_rounds_total"`}},
		want: []string{"obsname"},
	},
	{
		name: "detrand/cross-package-taint",
		pkgs: []string{"internal/stats", "internal/policy"},
		edits: []edit{
			{file: "internal/stats/mutation.go", new: `package stats

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`},
			{file: "internal/policy/mutation.go", new: `package policy

import "repro/internal/stats"

func stamped() int64 { return stats.Stamp() }
`},
		},
		want: []string{"detrand"},
	},
	{
		name: "suppression/stale",
		pkgs: []string{"internal/frame"},
		edits: []edit{{file: "internal/frame/frame.go",
			old: "\tn := binary.BigEndian.Uint32(head[0:4])\n",
			new: "\t//lint:maporder-ok a frame header holds no map\n\tn := binary.BigEndian.Uint32(head[0:4])\n"}},
		want: []string{analysis.SuppressionCheck},
	},
}

// TestSeededMutationsAreCaught runs the shipped suite over copies of
// real packages with one defect seeded into each, type-checked under
// their real import paths against the module's export data, and checks
// that every defect is caught by its analyzer and nothing else fires.
func TestSeededMutationsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages from export data; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			tmp := t.TempDir()
			var specs []analysis.DirSpec
			for _, pkg := range m.pkgs {
				dir := filepath.Join(tmp, pkg)
				copyNonTestGo(t, filepath.Join(root, pkg), dir)
				specs = append(specs, analysis.DirSpec{Dir: dir, ImportPath: "repro/" + pkg})
			}
			edited := make(map[string]bool)
			for _, e := range m.edits {
				path := filepath.Join(tmp, e.file)
				edited[path] = true
				applyEdit(t, path, e)
			}
			pkgs, err := analysis.LoadDirs(root, specs)
			if err != nil {
				t.Fatalf("loading mutated packages: %v", err)
			}
			// A temporary directory has no README beside a go.mod, so
			// obsname is pointed at the module's.
			findings, err := analysis.Run(pkgs, suite(filepath.Join(root, "README.md")))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			var report strings.Builder
			for _, f := range findings {
				got = append(got, f.Analyzer)
				report.WriteString(f.String() + "\n")
				if !edited[f.Pos.Filename] {
					t.Errorf("finding outside the edited files: %s", f)
				}
			}
			if !slices.Equal(got, m.want) {
				t.Errorf("findings by %v, want %v:\n%s", got, m.want, report.String())
			}
		})
	}
}

// copyNonTestGo copies the non-test .go files of src into dst.
func copyNonTestGo(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// applyEdit seeds one edit into the file at path.
func applyEdit(t *testing.T, path string, e edit) {
	t.Helper()
	content := e.new
	if e.old != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(b), e.old); n != 1 {
			t.Fatalf("%s: edit target occurs %d times, want 1", e.file, n)
		}
		content = strings.Replace(string(b), e.old, e.new, 1)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
