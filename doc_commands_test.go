package guess_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// goRunRE matches `go run [flags] ./<dir>` and captures the directory.
	goRunRE = regexp.MustCompile(`\bgo run(?:\s+-\S+)*\s+(\./\S*)`)
	// makeRE matches a make invocation and captures its arguments up to
	// the next shell separator.
	makeRE = regexp.MustCompile(`(?:^|[\s;&|(])make((?:[ \t]+[^\s;&|#)]+)*)`)
	// targetRE matches a Makefile rule line (not a := or ?= assignment).
	targetRE = regexp.MustCompile(`^([A-Za-z0-9_.-]+(?:[ \t]+[A-Za-z0-9_.-]+)*)[ \t]*:(?:[^=]|$)`)
	// codeSpanRE matches an inline code span, which may wrap a line.
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
)

// TestDocCommandsResolve checks that every command README.md and
// EXPERIMENTS.md tell a reader to run names something that exists:
// each `go run ./<dir>` a directory holding package main, and each
// `make <target>` a Makefile target. Only shell code is read — fenced
// sh blocks and inline code spans — so prose such as "make it" is not
// a command.
func TestDocCommandsResolve(t *testing.T) {
	targets := makeTargets(t)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range shellText(string(raw)) {
			for _, m := range goRunRE.FindAllStringSubmatch(cmd, -1) {
				dir := filepath.Clean(strings.TrimRight(m[1], ".,:;)"))
				if !isMainPackage(t, dir) {
					t.Errorf("%s: %q: ./%s holds no package main", doc, m[0], dir)
				}
			}
			for _, m := range makeRE.FindAllStringSubmatch(cmd, -1) {
				for _, arg := range strings.Fields(m[1]) {
					if strings.Contains(arg, "=") || strings.HasPrefix(arg, "-") {
						continue
					}
					if !targets[arg] {
						t.Errorf("%s: %q: no Makefile target %q", doc, strings.TrimSpace(m[0]), arg)
					}
				}
			}
		}
	}
}

// shellText returns the shell code of a Markdown document: each line
// of a fenced sh block, comments stripped, and each inline code span
// outside fences.
func shellText(doc string) []string {
	var out []string
	var prose strings.Builder
	fence, shell := false, false
	for _, line := range strings.Split(doc, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "```"); ok {
			fence = !fence
			if fence {
				lang := strings.TrimSpace(rest)
				shell = lang == "sh" || lang == "bash" || lang == "shell"
			}
			prose.WriteString("\n")
			continue
		}
		switch {
		case !fence:
			prose.WriteString(line + "\n")
		case shell:
			if i := strings.Index(line, "#"); i >= 0 && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
				line = line[:i]
			}
			out = append(out, line)
		}
	}
	for _, m := range codeSpanRE.FindAllStringSubmatch(prose.String(), -1) {
		out = append(out, strings.ReplaceAll(m[1], "\n", " "))
	}
	return out
}

// makeTargets returns the rule targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if m := targetRE.FindStringSubmatch(line); m != nil {
			for _, name := range strings.Fields(m[1]) {
				targets[name] = true
			}
		}
	}
	if len(targets) == 0 {
		t.Fatal("no targets found in Makefile")
	}
	return targets
}

// isMainPackage reports whether dir holds a non-test Go file of package
// main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err == nil && af.Name.Name == "main" {
			return true
		}
	}
	return false
}
