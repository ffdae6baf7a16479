package guess_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	// docFlagRE matches a flag argument and captures its name, without
	// the dashes or an =value.
	docFlagRE = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)`)
)

// TestDocCommandsResolve checks that every command README.md and
// EXPERIMENTS.md tell a reader to run names something that exists:
// each `go run ./<dir>` a directory holding package main whose flag set
// defines every -flag the command passes, and each `make <target>` a
// Makefile target. Only shell code is read — fenced sh blocks and
// inline code spans — so prose such as "make it" is not a command.
func TestDocCommandsResolve(t *testing.T) {
	targets := makeTargets(t)
	defined := make(map[string]map[string]bool) // dir -> flag names
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range shellText(string(raw)) {
			for _, m := range goRunRE.FindAllStringSubmatchIndex(cmd, -1) {
				run := cmd[m[0]:m[1]]
				dir := filepath.Clean(strings.TrimRight(cmd[m[2]:m[3]], ".,:;)"))
				if !isMainPackage(t, dir) {
					t.Errorf("%s: %q: ./%s holds no package main", doc, run, dir)
					continue
				}
				if defined[dir] == nil {
					defined[dir] = flagNames(t, dir)
				}
				args := cmd[m[1]:]
				if i := strings.IndexAny(args, ";&|"); i >= 0 {
					args = args[:i]
				}
				for _, arg := range strings.Fields(args) {
					if f := docFlagRE.FindStringSubmatch(arg); f != nil && !defined[dir][f[1]] {
						t.Errorf("%s: %q: ./%s defines no flag -%s", doc, run, dir, f[1])
					}
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
// of a fenced sh block, comments stripped and \-continued lines joined,
// and each inline code span outside fences.
func shellText(doc string) []string {
	var out []string
	var prose strings.Builder
	var cont string // a fenced line that ended in \, awaiting the next
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
			line = cont + line
			if joined, ok := strings.CutSuffix(strings.TrimRight(line, " \t"), "\\"); ok {
				cont = joined + " "
				continue
			}
			cont = ""
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

// flagSetFuncs maps each flag.FlagSet method that defines a flag to the
// index of its name argument.
var flagSetFuncs = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1,
	"IntVar": 1, "StringVar": 1, "TextVar": 1, "Uint64Var": 1,
	"UintVar": 1, "Var": 1,
}

// flagNames returns the flags the package in dir defines, read from its
// non-test source: the string-literal names passed to the methods of
// each *flag.FlagSet it makes with flag.NewFlagSet or takes as a
// parameter, plus those defined by the repro/... packages it hands such
// a FlagSet to. -h and -help are always defined.
func flagNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{"h": true, "help": true}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := make(map[string]string) // local name -> directory
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(path, "repro/")
			if !ok {
				continue
			}
			local := filepath.Base(rel)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = rel
		}
		flagSets := make(map[string]bool)
		ast.Inspect(af, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					break
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if id, isIdent := n.Lhs[0].(*ast.Ident); ok && isIdent && isSelector(call.Fun, "flag", "NewFlagSet") {
					flagSets[id.Name] = true
				}
			case *ast.Field:
				if star, ok := n.Type.(*ast.StarExpr); ok && isSelector(star.X, "flag", "FlagSet") {
					for _, id := range n.Names {
						flagSets[id.Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(af, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if i, ok := flagSetFuncs[sel.Sel.Name]; ok && flagSets[recv.Name] && i < len(call.Args) {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names[name] = true
				}
			}
			if pkg, ok := imports[recv.Name]; ok {
				for _, arg := range call.Args {
					if id, ok := arg.(*ast.Ident); ok && flagSets[id.Name] {
						for name := range flagNames(t, pkg) {
							names[name] = true
						}
						break
					}
				}
			}
			return true
		})
	}
	return names
}

// isSelector reports whether e is the selector pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
