package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // canonical import path (test-variant suffix stripped)
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	ForTest    string
	ImportMap  map[string]string
	Incomplete bool
}

// goList runs `go list -e -test -deps -export -json patterns...` in
// dir and decodes the JSON stream. -export compiles dependencies so
// every package (including the standard library) carries gc export
// data, which is how the loader type-checks without a network or a
// golang.org/x/tools dependency.
func goList(dir string, patterns ...string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-test", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// basePath strips go list's test-variant suffix, e.g.
// "repro/internal/core [repro/internal/core.test]" -> "repro/internal/core".
func basePath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// memImporter resolves imports from in-memory packages first (fixture
// siblings loaded by LoadDirs), falling back to gc export data.
type memImporter struct {
	mem map[string]*types.Package
	gc  types.Importer
}

func (m memImporter) Import(path string) (*types.Package, error) {
	if p := m.mem[path]; p != nil {
		return p, nil
	}
	return m.gc.Import(path)
}

// typecheck parses files and type-checks them against gc export data.
// importMap translates source-level import paths to the package
// variants go list selected (relevant for test variants); exports maps
// import paths to export-data files; mem supplies already-type-checked
// sibling packages (multi-directory fixtures) ahead of export data.
func typecheck(path, dir string, fileNames []string, importMap, exports map[string]string, mem map[string]*types.Package) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range fileNames {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(importPath string) (io.ReadCloser, error) {
		if mapped, ok := importMap[importPath]; ok {
			importPath = mapped
		}
		export, ok := exports[importPath]
		if !ok || export == "" {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(export)
	}
	conf := types.Config{Importer: memImporter{mem: mem, gc: importer.ForCompiler(fset, "gc", lookup)}}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     pkg,
		TypesInfo: info,
	}, nil
}

// Load loads and type-checks the packages matching patterns (relative
// to dir), including their in-package and external test files. When
// both a plain package and its test-augmented variant exist, only the
// variant is returned — it is a superset of the plain package's files,
// and returning both would double-report findings.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	// Longest import path first, so "pkg [pkg.test]" variants win the
	// dedup race against their plain "pkg" form.
	sorted := append([]*listPkg(nil), listed...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i].ImportPath) > len(sorted[j].ImportPath) })

	seen := make(map[string]bool)
	var pkgs []*Package
	for _, p := range sorted {
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue // stdlib dependency or synthetic test-main package
		}
		base := basePath(p.ImportPath)
		if base != "repro" && !strings.HasPrefix(base, "repro/") {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", base)
		}
		if seen[base] {
			continue
		}
		seen[base] = true
		if p.Incomplete || (p.Export == "" && p.ForTest == "" && p.Name != "main") {
			return nil, fmt.Errorf("%s: package did not compile; fix the build before linting", base)
		}
		pkg, err := typecheck(base, p.Dir, p.GoFiles, p.ImportMap, exports, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", base, err)
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// testdataExports caches the export map used to type-check testdata
// packages: everything in the enclosing module plus the handful of
// standard-library packages the analyzer fixtures import.
var testdataExports struct {
	once sync.Once
	m    map[string]string
	err  error
}

// primeTestdataExports fills the export cache on first use, from the
// module enclosing dir.
func primeTestdataExports(dir string) error {
	root, err := moduleRoot(dir)
	if err != nil {
		return err
	}
	testdataExports.once.Do(func() {
		listed, err := goList(root, "./...",
			"time", "math/rand", "math/rand/v2", "crypto/rand",
			"sync", "sync/atomic", "net", "context", "encoding/binary",
			"io", "sort", "slices", "maps")
		if err != nil {
			testdataExports.err = err
			return
		}
		testdataExports.m = make(map[string]string)
		for _, p := range listed {
			if p.Export != "" {
				testdataExports.m[p.ImportPath] = p.Export
			}
		}
	})
	return testdataExports.err
}

// A DirSpec names one fixture directory and the import path it claims.
type DirSpec struct {
	Dir        string
	ImportPath string
}

// LoadDirs type-checks several fixture directories as one program, in
// order, letting later fixtures import earlier ones by their claimed
// paths. Every other import resolves to export data from the module
// that contains the directory module; the fixtures themselves may live
// anywhere, a temporary directory included. It exists for
// analyzer tests: cross-package facts (a deterministic package calling
// an exempt package's helper) need at least two packages in the
// Program.
func LoadDirs(module string, specs []DirSpec) ([]*Package, error) {
	if err := primeTestdataExports(module); err != nil {
		return nil, err
	}
	mem := make(map[string]*types.Package)
	var pkgs []*Package
	for _, spec := range specs {
		entries, err := os.ReadDir(spec.Dir)
		if err != nil {
			return nil, err
		}
		var fileNames []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				fileNames = append(fileNames, e.Name())
			}
		}
		if len(fileNames) == 0 {
			return nil, fmt.Errorf("no .go files in %s", spec.Dir)
		}
		pkg, err := typecheck(spec.ImportPath, spec.Dir, fileNames, nil, testdataExports.m, mem)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ImportPath, err)
		}
		mem[spec.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
