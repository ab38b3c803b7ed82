package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package, the unit every
// analyzer operates on.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string // parallel to Files
	Types     *types.Package
	Info      *types.Info

	escapes map[*ast.File]map[int]string
}

// fileFor returns the parsed file containing pos.
func (p *Package) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// escapeLines maps source lines to the //lint:<tag> escape hatch they
// carry (the tag is the first word after "lint:"); a comment group's
// tag is attributed to its last line so both trailing and preceding
// comments cover the flagged statement.
func (p *Package) escapeLines(fset *token.FileSet, f *ast.File) map[int]string {
	if p.escapes == nil {
		p.escapes = make(map[*ast.File]map[int]string)
	}
	if m, ok := p.escapes[f]; ok {
		return m
	}
	m := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:") {
				continue
			}
			tag := strings.TrimPrefix(text, "lint:")
			if i := strings.IndexAny(tag, " \t"); i >= 0 {
				tag = tag[:i]
			}
			if tag != "" {
				m[fset.Position(c.End()).Line] = tag
			}
		}
	}
	p.escapes[f] = m
	return m
}

// A Loader parses and type-checks packages from source. It resolves
// imports three ways: paths under ModulePath map into ModuleRoot
// (module layout), any path maps under SrcRoot when set (GOPATH-style
// layout, used by the analyzer fixtures), and everything else falls
// back to the standard library via go/importer's source importer — the
// one import mode that needs no pre-built export data, keeping the
// loader dependency-free and offline.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot / ModulePath describe the enclosing module ("repro"
	// rooted at the repository top for the real tree).
	ModuleRoot string
	ModulePath string
	// SrcRoot, when non-empty, maps import path P to SrcRoot/P.
	SrcRoot string
	// IncludeTests adds in-package _test.go files to the load.
	IncludeTests bool

	std  types.ImporterFrom
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader returns a Loader rooted at the module containing dir: it
// walks up to the nearest go.mod and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	path := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			path = strings.TrimSpace(rest)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("no module directive in %s/go.mod", root)
	}
	return &Loader{ModuleRoot: root, ModulePath: path}, nil
}

func (l *Loader) init() {
	if l.Fset == nil {
		l.Fset = token.NewFileSet()
	}
	if l.pkgs == nil {
		l.pkgs = make(map[string]*loadEntry)
	}
	if l.std == nil {
		l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	}
}

// dirFor maps an import path to a source directory, or ok=false when
// the path belongs to the standard library fallback.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.SrcRoot != "" {
		dir := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleRoot, true
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.init()
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load parses and type-checks the package with the given import path
// (memoized, cycle-safe via the error entry placed up front).
func (l *Loader) Load(path string) (*Package, error) {
	l.init()
	if e, ok := l.pkgs[path]; ok {
		return e.pkg, e.err
	}
	e := &loadEntry{err: fmt.Errorf("import cycle through %s", path)}
	l.pkgs[path] = e
	e.pkg, e.err = l.load(path)
	if e.err != nil {
		e.pkg = nil
	}
	return e.pkg, e.err
}

func (l *Loader) load(path string) (*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("%s: not under the loader's roots", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path: path,
		Fset: l.Fset,
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, filename, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if l.IncludeTests && strings.HasSuffix(name, "_test.go") && len(pkg.Files) > 0 && f.Name.Name != pkg.Files[0].Name.Name {
			continue // external _test package; out of scope
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, filename)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("%s: no Go files in %s", path, dir)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// Expand resolves a command-line pattern to import paths: "./..." and
// "dir/..." walk the tree (skipping testdata, hidden and _ dirs),
// "./dir" and plain import paths load one package.
func (l *Loader) Expand(pattern string) ([]string, error) {
	l.init()
	rec := false
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		rec = true
		pattern = rest
		if pattern == "." || pattern == "" {
			pattern = "./"
		}
	}
	// Relative patterns are rooted at the module; absolute and bare
	// import paths resolve through dirFor.
	var base, baseDir string
	switch {
	case pattern == "./" || pattern == ".":
		base, baseDir = l.ModulePath, l.ModuleRoot
	case strings.HasPrefix(pattern, "./"):
		rel := filepath.ToSlash(strings.TrimPrefix(pattern, "./"))
		base = l.ModulePath + "/" + rel
		baseDir = filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	default:
		base = pattern
		var ok bool
		baseDir, ok = l.dirFor(pattern)
		if !ok {
			return nil, fmt.Errorf("pattern %q: not under the current module", pattern)
		}
	}
	if !rec {
		return []string{base}, nil
	}
	var paths []string
	err := filepath.WalkDir(baseDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != baseDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(baseDir, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := base
		if rel != "." {
			ip = base + "/" + filepath.ToSlash(rel)
		}
		if n := len(paths); n == 0 || paths[n-1] != ip {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
