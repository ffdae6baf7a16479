// Package analysistest runs guess-lint analyzers over fixture packages
// and checks their findings against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (reimplemented here
// because the repo is stdlib-only).
//
// A fixture is a directory of Go files (conventionally
// testdata/src/<name>/) loaded with a claimed import path, so a
// fixture can pose as a deterministic package ("repro/internal/policy")
// or as an exempt one ("repro/node"). Expectations are comments:
//
//	time.Now() // want `reads the wall clock`
//
// Each string after want is a regular expression; every expectation on
// a line must be matched by a distinct finding on that line, and every
// finding must match an expectation.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe matches the expectation list at the end of a comment.
var wantRe = regexp.MustCompile(`// want (.*)$`)

// expectation is one `// want` regexp, located at a file:line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package in dir under the claimed import path,
// applies the analyzers, and reports mismatches between findings and
// // want comments through t.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	RunDirs(t, []analysis.DirSpec{{Dir: dir, ImportPath: importPath}}, analyzers...)
}

// RunDirs is Run over several fixture packages loaded together, so
// later packages can import earlier ones and interprocedural analyzers
// see cross-package facts. Expectations are collected from every
// package.
func RunDirs(t *testing.T, specs []analysis.DirSpec, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.LoadDirs(".", specs)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	wants := make(map[string][]*expectation)
	for _, pkg := range pkgs {
		if err := parseWants(pkg, wants); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if !claim(wants[key], f.Message) {
			t.Errorf("unexpected finding at %s: [%s] %s", key, f.Analyzer, f.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("no finding at %s matching %q", key, e.re)
			}
		}
	}
}

// claim marks the first unmatched expectation matching msg.
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts // want expectations keyed by "file:line" into
// wants.
func parseWants(pkg *analysis.Package, wants map[string][]*expectation) error {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return fmt.Errorf("%s: %v", key, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return fmt.Errorf("%s: bad want pattern %q: %v", key, p, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return nil
}

// splitPatterns parses a sequence of Go-quoted or backquoted strings.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("want patterns must be quoted strings, got %q", s)
		}
		quote := s[0]
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		raw := s[:end+2]
		p, err := strconv.Unquote(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", raw, err)
		}
		out = append(out, p)
		s = strings.TrimSpace(s[end+2:])
	}
	return out, nil
}
