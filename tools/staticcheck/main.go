// Command staticcheck is the repo's determinism lint: a stdlib-only
// (go/parser + go/types) analyzer that walks the module's internal/...
// packages and fails on the hazards that the byte-identity determinism
// gate can only catch dynamically — and only when a test happens to hit
// them. The static pass makes the invariant structural:
//
//   - map-range: iteration over a map feeds whatever consumes the loop —
//     output streams, simulation order, aggregation — in randomized
//     order. Sort the keys first, or keep a slice. Every occurrence in
//     internal/... must be allowlisted with a justification.
//
//   - wallclock: time.Now (and any import of math/rand) in the simulation
//     stack makes runs depend on the host. The engine owns the clock
//     (sim.Engine.Now) and internal/sim owns seeded randomness.
//
//   - go-stmt: goroutine spawns in engine hot paths break the
//     single-threaded execution model the zero-alloc paths and the
//     byte-identity gates rely on. Concurrency belongs in the sweep
//     worker pool (internal/sweep), whose reorder buffer restores
//     deterministic output order — and even those sites carry an
//     allowlist justification.
//
//   - host-import: the simulation stack must not import log/slog or
//     internal/hostobs. Host observability (wall-clock spans, structured
//     logs, resource accounting) belongs to the daemon-side packages
//     (internal/server, internal/journal, internal/faultpoint,
//     internal/hostobs); a sim package that logs host state is one step
//     from leaking host time into result bytes.
//
// Findings are suppressed by tools/staticcheck/allowlist.txt; every entry
// names (file, check, enclosing function) and carries a one-line
// justification. Unused entries are errors, so the list cannot rot.
//
// Usage: staticcheck [-root dir] [-scan rel] [-allowlist file]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "module root directory")
	scan := flag.String("scan", "internal", "comma-separated directories under root to analyze")
	allow := flag.String("allowlist", "tools/staticcheck/allowlist.txt", "allowlist file (relative to root)")
	flag.Parse()

	code, err := run(*root, strings.Split(*scan, ","), *allow, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "staticcheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// finding is one determinism hazard at a source position.
type finding struct {
	file  string // slash path relative to the module root
	line  int
	check string
	fn    string // enclosing function, "-" at file level
	msg   string
}

func (f finding) key() string { return f.file + " " + f.check + " " + f.fn }

// allowEntry is one parsed allowlist line.
type allowEntry struct {
	key  string
	line int
	used bool
}

// run analyzes the scan dirs under root and writes findings to out. It
// returns 1 when unsuppressed findings (or stale allowlist entries)
// remain, 0 otherwise.
func run(root string, scanDirs []string, allowPath string, out io.Writer) (int, error) {
	module, err := modulePath(root)
	if err != nil {
		return 0, err
	}
	allow, err := loadAllowlist(filepath.Join(root, allowPath))
	if err != nil {
		return 0, err
	}

	a := newAnalyzer(root, module)
	var findings []finding
	for _, dir := range scanDirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		fs, err := a.analyzeTree(dir)
		if err != nil {
			return 0, err
		}
		findings = append(findings, fs...)
	}

	bad := 0
	for _, f := range findings {
		if e, ok := allow[f.key()]; ok {
			e.used = true
			continue
		}
		bad++
		fmt.Fprintf(out, "%s:%d: %s: %s (in %s)\n", f.file, f.line, f.check, f.msg, f.fn)
	}
	// A stale allowlist entry means the hazard it justified is gone (or
	// moved): fail so the list stays exact.
	stale := make([]*allowEntry, 0)
	for _, e := range allow {
		if !e.used {
			stale = append(stale, e)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].line < stale[j].line })
	for _, e := range stale {
		bad++
		fmt.Fprintf(out, "%s:%d: stale allowlist entry %q — no matching finding\n", allowPath, e.line, e.key)
	}
	if bad > 0 {
		fmt.Fprintf(out, "staticcheck: %d problem(s)\n", bad)
		return 1, nil
	}
	fmt.Fprintf(out, "staticcheck: OK (%d finding(s), all justified in %s)\n", len(findings), allowPath)
	return 0, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// loadAllowlist parses the allowlist: one entry per line,
// "<file> <check> <func>" followed by free-text justification; '#' starts
// a comment.
func loadAllowlist(path string) (map[string]*allowEntry, error) {
	entries := make(map[string]*allowEntry)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return entries, nil
		}
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs <file> <check> <func>", path, i+1)
		}
		key := fields[0] + " " + fields[1] + " " + fields[2]
		if _, dup := entries[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate allowlist entry %q", path, i+1, key)
		}
		entries[key] = &allowEntry{key: key, line: i + 1}
	}
	return entries, nil
}

// analyzer typechecks packages of one module with a stdlib importer for
// everything else.
type analyzer struct {
	root   string
	module string
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*types.Package
}

func newAnalyzer(root, module string) *analyzer {
	return &analyzer{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		cache:  make(map[string]*types.Package),
	}
}

// Import implements types.Importer: module-local paths are typechecked
// from source, everything else (the standard library) comes from the
// toolchain's export data.
func (a *analyzer) Import(path string) (*types.Package, error) {
	if pkg, ok := a.cache[path]; ok {
		return pkg, nil
	}
	if path == a.module || strings.HasPrefix(path, a.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, a.module), "/")
		files, err := a.parseDir(filepath.Join(a.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: a}
		pkg, err := conf.Check(path, a.fset, files, nil)
		if err != nil {
			return nil, err
		}
		a.cache[path] = pkg
		return pkg, nil
	}
	return a.std.Import(path)
}

// parseDir parses the non-test Go files of one directory that the build
// for this host's GOOS/GOARCH includes, sorted by name: a package with an
// _amd64.go file and a !amd64 counterpart declares their symbols twice
// across the two, once per build.
func (a *analyzer) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents { // ReadDir sorts by name
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// analyzeTree walks every package directory under root/rel and returns the
// findings, in deterministic (path, position) order.
func (a *analyzer) analyzeTree(rel string) ([]finding, error) {
	var dirs []string
	err := filepath.WalkDir(filepath.Join(a.root, filepath.FromSlash(rel)), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var findings []finding
	for _, dir := range dirs {
		fs, err := a.analyzePackage(dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

// analyzePackage typechecks one directory (if it holds non-test Go files)
// and runs the determinism checks over its syntax.
func (a *analyzer) analyzePackage(dir string) ([]finding, error) {
	files, err := a.parseDir(dir)
	if err != nil || len(files) == 0 {
		return nil, err
	}
	rel, err := filepath.Rel(a.root, dir)
	if err != nil {
		return nil, err
	}
	pkgPath := a.module + "/" + filepath.ToSlash(rel)
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: a}
	if _, err := conf.Check(pkgPath, a.fset, files, info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgPath, err)
	}

	var findings []finding
	add := func(pos token.Pos, check, fn, msg string) {
		p := a.fset.Position(pos)
		relFile, err := filepath.Rel(a.root, p.Filename)
		if err != nil {
			relFile = p.Filename
		}
		findings = append(findings, finding{
			file: filepath.ToSlash(relFile), line: p.Line, check: check, fn: fn, msg: msg,
		})
	}

	hostSide := hostSidePackage(filepath.ToSlash(rel))
	for _, f := range files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				add(imp.Pos(), "wallclock", "-",
					"math/rand import in the deterministic stack; use the engine-seeded RNG in internal/sim")
			case "log/slog":
				if !hostSide {
					add(imp.Pos(), "host-import", "-",
						"log/slog import in the deterministic sim stack; host logging lives at the daemon edge (internal/hostobs)")
				}
			case a.module + "/internal/hostobs":
				if !hostSide {
					add(imp.Pos(), "host-import", "-",
						"internal/hostobs import in the deterministic sim stack; host observability is daemon-side only")
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := funcName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.RangeStmt:
					if t := info.Types[v.X].Type; t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							add(v.Pos(), "map-range", fn,
								fmt.Sprintf("iteration over map %s feeds program order nondeterministically; sort keys or keep a slice", t))
						}
					}
				case *ast.SelectorExpr:
					if obj := info.Uses[v.Sel]; obj != nil && obj.Pkg() != nil &&
						obj.Pkg().Path() == "time" && obj.Name() == "Now" {
						add(v.Pos(), "wallclock", fn,
							"time.Now in the deterministic stack; the engine clock (sim.Engine.Now) owns time")
					}
				case *ast.GoStmt:
					add(v.Pos(), "go-stmt", fn,
						"goroutine spawn in the engine stack; concurrency belongs in the sweep worker pool")
				}
				return true
			})
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].file != findings[j].file {
			return findings[i].file < findings[j].file
		}
		return findings[i].line < findings[j].line
	})
	return findings, nil
}

// hostSidePackage reports whether the package at slash-relative path rel
// is allowed to import the host observability layer: the daemon-side
// packages that sit between the deterministic core and the host
// (internal/server, internal/journal, internal/faultpoint) plus hostobs
// itself. Everything else under internal/ is sim stack and must stay
// host-blind; trees outside internal/ (cmd, tools) are not scanned as sim
// stack and are exempt by construction.
func hostSidePackage(rel string) bool {
	sub, ok := strings.CutPrefix(rel, "internal/")
	if !ok {
		return true
	}
	seg, _, _ := strings.Cut(sub, "/")
	switch seg {
	case "server", "journal", "faultpoint", "hostobs":
		return true
	}
	return false
}

// funcName renders a FuncDecl as Recv.Name for methods, Name otherwise —
// the stable identifier allowlist entries use.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Unwrap generic receivers (Stream[R] -> Stream).
	switch v := t.(type) {
	case *ast.IndexExpr:
		t = v.X
	case *ast.IndexListExpr:
		t = v.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
